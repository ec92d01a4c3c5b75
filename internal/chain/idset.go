package chain

import "sort"

// idSet is the exactly-once filter: the set of every transaction id a
// peer has applied, never pruned (see applyBatch for why it cannot be).
// It answers exactly what a map[string]bool of the same ids would, but
// the ids SubmitAsync assigns — "<shard>-<nonce>-tx-<n>", n counting up
// — cost a few bytes per gap instead of a map entry each.
//
// An id of the form prefix + "-" + d, d the canonical decimal of a
// uint64 (no sign, no leading zero, "0" itself allowed), is the point n
// in prefix's range list. prefix and n determine the id and the id
// determines them (the split is at the last '-'; a uint64 has one
// canonical decimal), so a point is in the list iff that id was added.
// Ranges are inclusive, sorted, disjoint and never adjacent: adding a
// point extends or joins its neighbours, and a gap — an id that failed
// admission and never committed — stays a gap. Every other id ("007",
// "a-01", "a-", one past the largest uint64) is kept whole in others.
// Like worldState it holds no lock: its peer's view lock guards it, so
// the shard's mempool can ask has at admission without waiting on the
// peer's own mutex.
type idSet struct {
	ranges map[string]*spans
	others map[string]struct{}
}

// span is the inclusive range lo..hi.
type span struct{ lo, hi uint64 }

type spans []span

func newIDSet() *idSet {
	return &idSet{ranges: make(map[string]*spans), others: make(map[string]struct{})}
}

// splitID splits id at its last '-' into prefix and number when the
// suffix is a canonical decimal that fits a uint64. prefix is a
// sub-slice of id.
func splitID[T string | []byte](id T) (prefix T, n uint64, ok bool) {
	i := len(id) - 1
	for i >= 0 && id[i] != '-' {
		i--
	}
	d := id[i+1:]
	if i < 0 || len(d) == 0 || (d[0] == '0' && len(d) > 1) {
		return prefix, 0, false
	}
	for j := 0; j < len(d); j++ {
		c := uint64(d[j]) - '0'
		if c > 9 || n > (^uint64(0)-c)/10 {
			return prefix, 0, false
		}
		n = n*10 + c
	}
	return id[:i], n, true
}

// add inserts id and reports whether it was absent. It takes the id as
// the applier reads it, in the committed bytes: only an id kept whole
// and a new prefix are copied out.
func (s *idSet) add(id []byte) bool {
	prefix, n, ok := splitID(id)
	if !ok {
		if _, dup := s.others[string(id)]; dup {
			return false
		}
		s.others[string(id)] = struct{}{}
		return true
	}
	sp := s.ranges[string(prefix)]
	if sp == nil {
		sp = new(spans)
		s.ranges[string(prefix)] = sp
	}
	return sp.add(n)
}

// has reports whether id was added.
func (s *idSet) has(id string) bool {
	prefix, n, ok := splitID(id)
	if !ok {
		_, in := s.others[id]
		return in
	}
	sp := s.ranges[prefix]
	if sp == nil {
		return false
	}
	i := sp.after(n)
	return i > 0 && n <= (*sp)[i-1].hi
}

// after returns the index of the first span that starts above n.
func (s spans) after(n uint64) int {
	if len(s) == 0 || s[len(s)-1].lo <= n {
		return len(s) // ids mostly arrive near the top
	}
	return sort.Search(len(s), func(i int) bool { return s[i].lo > n })
}

func (s *spans) add(n uint64) bool {
	a := *s
	i := a.after(n)
	if i > 0 && n <= a[i-1].hi {
		return false
	}
	// a[i-1].hi < n < a[i].lo, so neither +1 below can wrap.
	left := i > 0 && a[i-1].hi+1 == n
	right := i < len(a) && n+1 == a[i].lo
	switch {
	case left && right:
		a[i-1].hi = a[i].hi
		*s = append(a[:i], a[i+1:]...)
	case left:
		a[i-1].hi = n
	case right:
		a[i].lo = n
	default:
		a = append(a, span{})
		copy(a[i+1:], a[i:])
		a[i] = span{n, n}
		*s = a
	}
	return true
}
