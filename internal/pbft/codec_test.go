package pbft

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"prever/internal/mempool"
	"prever/internal/netsim"
	"prever/internal/wire"
	"prever/internal/wire/wiretest"
)

// frame64 is the hot path's request body: a full mempool batch of 64
// operations, 12 KB in all.
func frame64() []byte {
	ops := make([][]byte, 64)
	for i := range ops {
		ops[i] = bytes.Repeat([]byte{byte(i)}, 190)
	}
	return mempool.EncodeBatch(ops)
}

// binaryTypes are the message types with a binary body, in the order
// FuzzDecodeMsg's selector indexes them.
var binaryTypes = []string{msgRequest, msgPrePrepare, msgPrepare, msgCommit, msgCheckpoint}

// decodeBody runs the decoder handle would run for msgType.
func decodeBody(msgType string, body []byte) (any, bool) {
	switch msgType {
	case msgRequest:
		return decodeRequest(body)
	case msgPrePrepare:
		return decodePrePrepare(body)
	case msgPrepare:
		return decodeVote(body)
	case msgCommit:
		c, ok := decodeVote(body)
		return commitMsg(c), ok
	case msgCheckpoint:
		return decodeCheckpoint(body)
	}
	panic("not a binary message type: " + msgType)
}

func sampleMsgs() map[string]any {
	req := &Request{Client: "c", Seq: 7, Op: []byte("op")}
	d := digestOf(req)
	return map[string]any{
		msgRequest:    Request{Client: "chain/s0/0a1b", Seq: 300, Op: []byte("op")},
		msgPrePrepare: prePrepareMsg{View: 1, Seq: 129, Digest: d, Req: req},
		msgPrepare:    prepareMsg{View: 1, Seq: 129, Digest: d},
		msgCommit:     commitMsg{View: 2, Seq: 130, Digest: d},
		msgCheckpoint: checkpointMsg{Seq: 256, State: d},
	}
}

func TestMessageRoundTrip(t *testing.T) {
	for typ, msg := range sampleMsgs() {
		body := appendBody(nil, msg)
		got, ok := decodeBody(typ, body)
		if !ok || !reflect.DeepEqual(got, msg) {
			t.Errorf("%s: decoded %+v (ok=%v), sent %+v", typ, got, ok, msg)
		}
		if _, ok := decodeBody(typ, body[:len(body)-1]); ok {
			t.Errorf("%s: truncated body accepted", typ)
		}
		if _, ok := decodeBody(typ, append(append([]byte{}, body...), 0)); ok {
			t.Errorf("%s: trailing byte accepted", typ)
		}
	}
	// The null fill of a view change: a pre-prepare with no requests.
	null := prePrepareMsg{View: 2, Seq: 5, Digest: digestOf(nil)}
	if got, ok := decodePrePrepare(appendBody(nil, null)); !ok || !reflect.DeepEqual(got, null) {
		t.Errorf("null pre-prepare: decoded %+v (ok=%v)", got, ok)
	}
}

// twoRequests are two requests as earlier builds ordered them in one
// instance, under the digest they gave a request list: SHA-256 over each
// request's len|client|seq|len|op in turn.
func twoRequests() (a, b Request, d Digest) {
	a = Request{Client: "c", Seq: 1, Op: []byte("a")}
	b = Request{Client: "c", Seq: 2, Op: []byte("b")}
	h := sha256.New()
	for _, r := range []Request{a, b} {
		h.Write(wire.AppendBytes(binary.AppendUvarint(wire.AppendString(nil, r.Client), r.Seq), r.Op))
	}
	h.Sum(d[:0])
	return a, b, d
}

// twoRequestEntry is an instance at seq in the JSON shape of earlier
// builds' prepared and executed entries, carrying both of twoRequests.
func twoRequestEntry(seq uint64) string {
	a, b, d := twoRequests()
	js, _ := json.Marshal(map[string]any{"seq": seq, "digest": d, "batch": []Request{a, b}})
	return string(js)
}

// An instance orders one request: a pre-prepare counting two is refused
// by the decoder, and a replica fed one by its primary, with every vote
// for its digest, executes neither request.
func TestPrePrepareOfTwoRequestsRefused(t *testing.T) {
	a, b, d := twoRequests()
	body := append(append([]byte{0, 0}, d[:]...), 2) // view 0, seq 0, digest, count 2
	body = appendRequest(appendRequest(body, &a), &b)
	if pp, ok := decodePrePrepare(body); ok {
		t.Errorf("a two-request body decoded to %+v", pp)
	}
	l, app := newLoneDurable(t, t.TempDir(), 4)
	l.deliverBody("p0", msgPrePrepare, body)
	for _, from := range []string{"p1", "p2"} {
		l.feed(from, msgPrepare, prepareMsg{Seq: 0, Digest: d})
	}
	for _, from := range []string{"p0", "p1", "p2"} {
		l.feed(from, msgCommit, commitMsg{Seq: 0, Digest: d})
	}
	if got, ops := l.r.Executed(), app.ops(); got != 0 || len(ops) != 0 {
		t.Fatalf("executed %d, applied %q", got, ops)
	}
}

// sealFrom is the envelope replica from broadcasts to the rest of ids,
// its MACs keyed from master.
func sealFrom(master []byte, ids []string, from, msgType string, v any) []byte {
	payload := envelope(len(ids), v)
	for i, id := range ids {
		if id != from {
			sign(linkKey(master, from, id), len(ids), i, msgType, payload)
		}
	}
	return payload
}

// TestPrePrepareGolden pins a primary's pre-prepare broadcast to a
// four-replica shard: its own slot zero, one MAC per backup, one body.
func TestPrePrepareGolden(t *testing.T) {
	req := &Request{Client: "chain/s0/0a1b", Seq: 300, Op: []byte("pbB2\x01\x02op")}
	pp := prePrepareMsg{View: 1, Seq: 129, Digest: digestOf(req), Req: req}
	master := []byte("golden master key")
	ids := []string{"s0/peer0", "s0/peer1", "s0/peer2", "s0/peer3"}
	want := wiretest.Golden(t, "testdata/preprepare.hex", sealFrom(master, ids, ids[1], msgPrePrepare, pp))
	for i, id := range ids {
		body, ok := open(linkKey(master, ids[1], id), len(ids), i, msgPrePrepare, want)
		if ok != (id != ids[1]) {
			t.Fatalf("slot %d opens: %v", i, ok)
		}
		if !ok {
			continue
		}
		if dec, ok := decodePrePrepare(body); !ok || !reflect.DeepEqual(dec, pp) || digestOf(dec.Req) != dec.Digest {
			t.Fatalf("golden body decodes to %+v (ok=%v)", dec, ok)
		}
	}
}

// TestDigestGolden: the request digest is in every durable replica's
// journal (pbRecord.Digest), and the envelope is in none — WAL records
// and snapshots hold requests, digests and views, never a payload — so
// changing the envelope leaves dataFormat where it is as long as this
// digest holds still. It is the digest inside preprepare.hex.
func TestDigestGolden(t *testing.T) {
	d := digestOf(&Request{Client: "chain/s0/0a1b", Seq: 300, Op: []byte("pbB2\x01\x02op")})
	wiretest.Golden(t, "testdata/digest.hex", d[:])
}

// TestDigestInjective: the digest covers length-prefixed fields, so
// moving a byte across a field boundary changes it, and a null fill's
// digest is no request's.
func TestDigestInjective(t *testing.T) {
	req := func(client string, seq uint64, op string) *Request {
		return &Request{Client: client, Seq: seq, Op: []byte(op)}
	}
	reqs := map[string]*Request{
		"ab|1|c":        req("ab", 1, "c"),
		"a|1|bc":        req("a", 1, "bc"),
		"abc|1|":        req("abc", 1, ""),
		"|1|abc":        req("", 1, "abc"),
		"ab|2|c":        req("ab", 2, "c"),
		"ab|257|c":      req("ab", 257, "c"),
		"a|1|x":         req("a", 1, "x"),
		"a|1|y":         req("a", 1, "y"),
		"empty request": req("", 0, ""),
		"no request":    nil,
	}
	seen := map[Digest]string{}
	for name, r := range reqs {
		d := digestOf(r)
		if other, dup := seen[d]; dup {
			t.Errorf("%q and %q share a digest", name, other)
		}
		seen[d] = name
		if digestOf(r) != d {
			t.Errorf("%q: digest not deterministic", name)
		}
	}
}

// A replica that catches up into a view it leads hands its revived
// requests to that view's primary — itself — and must accept them: they
// are proposed at once, not after the view-change timer re-fires.
func TestRevivedRequestsReachSelfAsNewPrimary(t *testing.T) {
	c := newCluster(t, 1, Options{ViewTimeout: time.Minute}, netsim.Config{})
	if err := c.net.Crash("p0"); err != nil {
		t.Fatal(err)
	}
	p1 := c.replicas[1]                               // primary of view 1
	done := p1.SubmitAsync("c", 1, []byte("revived")) // forwarded to dead p0, watched by p1
	// The backups enter view 1 before its primary does: a pre-prepare p1
	// sent while p2 or p3 was still in view 0 would be dropped there, and
	// the instance would wait out the view timer.
	for _, r := range []*Replica{c.replicas[3], c.replicas[2], p1} {
		for _, from := range []string{"p2", "p3"} { // f+1 claims of view 1
			onLoop(t, r, func() { r.onStateRep(from, stateRepMsg{View: 1}) })
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the new primary never proposed the request it was watching")
	}
}

// allTypes is every message type, the cold JSON ones after binaryTypes.
var allTypes = append(binaryTypes[:len(binaryTypes):len(binaryTypes)], msgViewChange, msgNewView, msgStateReq, msgStateRep)

// FuzzOpen: the envelope is the first thing run over bytes from the
// network. open must never panic or allocate, and must refuse a slot
// that does not verify: a payload too short for the slots, a flipped bit
// in the receiver's slot or in the header, a slot read at another
// receiver's index or under another pair's key, a slot reflected back
// into the sender's index as its receiver's, a body relabelled as
// another type. It opens whatever the MAC does not cover — another
// receiver's slot, a pre-prepare's requests (the digest covers those,
// TestAlteredBatchRefused) — and a body that verifies but is garbage
// falls to the decoders' checks, not through them.
func FuzzOpen(f *testing.F) {
	ids := []string{"p0", "p1", "p2", "p3"}
	n := len(ids)
	keys := make([]*macKey, n)
	for j, id := range ids {
		keys[j] = linkKey([]byte("master"), "p0", id)
	}
	pp := appendBody(nil, sampleMsgs()[msgPrePrepare])
	f.Add(uint8(0), []byte(nil), uint(0))                                                 // shorter than the slots
	f.Add(uint8(1), bytes.Repeat([]byte{0}, n*macSize-1), uint(3))                        // one byte short of the slots
	f.Add(uint8(2), []byte(`{"body":"e30=","mac":"AAAA"}`), uint(0))                      // the envelope earlier binaries sent
	f.Add(uint8(1), pp, uint(macSize+5))                                                  // flips a byte of the receiver's MAC
	f.Add(uint8(1), pp, uint(n*macSize+len(pp)-1))                                        // flips a request byte: not the MAC's to cover
	f.Add(uint8(2), appendBody(nil, sampleMsgs()[msgPrepare]), uint(n*macSize+2))         // flips a header byte
	f.Add(uint8(6), []byte("\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff garbage"), uint(40)) // valid MACs over a garbage body
	f.Fuzz(func(t *testing.T, sel uint8, body []byte, flip uint) {
		typ := allTypes[int(sel)%len(allTypes)]
		// Raw fuzz input as a payload: it carries no valid MAC.
		for j := range ids {
			if _, ok := open(keys[j], n, j, typ, body); ok {
				t.Fatalf("unauthenticated payload %x opened at slot %d", body, j)
			}
		}
		if _, ok := open(nil, n, 1, typ, body); ok {
			t.Fatal("payload opened for a sender with no key")
		}
		payload := append(make([]byte, n*macSize), body...)
		for j := 1; j < n; j++ {
			sign(keys[j], n, j, typ, payload)
		}
		_, hdr, framed := macInput(typ, body)
		var got []byte
		var ok bool
		limit := uint64(0)
		if raceEnabled {
			limit = 2048 // the pool dropped the keyed HMAC: one hmac.New
		}
		if a := wiretest.AllocBytes(func() { got, ok = open(keys[1], n, 1, typ, payload) }); a > limit {
			t.Fatalf("open allocated %d bytes (limit %d)", a, limit)
		}
		if !framed {
			if ok {
				t.Fatalf("%s: opened a body with no header", typ)
			}
			return
		}
		if !ok || !bytes.Equal(got, body) {
			t.Fatalf("%s: sealed body did not open to itself (ok=%v)", typ, ok)
		}
		for j := range ids {
			for k := range ids {
				if _, ok := open(keys[j], n, k, typ, payload); ok != (j == k && j != 0) {
					t.Fatalf("%s: receiver %d's key opens slot %d: %v", typ, j, k, ok)
				}
			}
		}
		if _, ok := open(linkKey([]byte("master"), "p1", "p2"), n, 2, typ, payload); ok {
			t.Fatal("envelope opened under another pair's key")
		}
		for j := 1; j < n; j++ {
			// Slot j reflected into the sender's index, as from ids[j].
			reflected := append([]byte(nil), payload...)
			copy(reflected[:macSize], payload[j*macSize:(j+1)*macSize])
			if _, ok := open(linkKey([]byte("master"), ids[j], "p0"), n, 0, typ, reflected); ok {
				t.Fatalf("%s: p0's MAC for %s opened back at p0 as from %s", typ, ids[j], ids[j])
			}
		}
		for _, other := range allTypes {
			if _, ok := open(keys[1], n, 1, other, payload); ok && other != typ {
				t.Fatalf("a %s opened as a %s", typ, other)
			}
		}
		for _, typ := range binaryTypes {
			decodeBody(typ, got) // authenticated garbage: must not panic
		}
		if _, ok := open(keys[1], n, 1, typ, payload[:len(payload)-1]); ok != (len(hdr) < len(body)) {
			t.Fatalf("%s: envelope cut inside its header opened, or cut after it did not (ok=%v)", typ, ok)
		}
		i := int(flip % uint(len(payload)))
		payload[i] ^= 0x01
		covered := (i >= macSize && i < 2*macSize) || (i >= n*macSize && i < n*macSize+len(hdr))
		if _, ok := open(keys[1], n, 1, typ, payload); ok == covered {
			t.Fatalf("%s: byte %d flipped, covered by the MAC %v, opened %v", typ, i, covered, ok)
		}
	})
}

// FuzzDecodeMsg: each of the five binary decoders must never panic, never
// allocate beyond a multiple of its input, and accept only what
// encodeBody writes — so an accepted body re-encodes to itself, which
// rules out trailing input too.
func FuzzDecodeMsg(f *testing.F) {
	for i, typ := range binaryTypes {
		body := appendBody(nil, sampleMsgs()[typ])
		f.Add(uint8(i), body)
		f.Add(uint8(i), body[:len(body)/2])
		f.Add(uint8(i), append(append([]byte{}, body...), 0))
		f.Add(uint8(i), []byte(nil))
	}
	f.Add(uint8(1), appendBody(nil, prePrepareMsg{Req: &Request{Op: frame64()}}))
	f.Add(uint8(1), append(append([]byte{0, 0}, make([]byte, 32)...), 0xff, 0xff, 0xff, 0xff, 0x0f)) // request count far beyond the input
	f.Add(uint8(0), []byte{0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})                                      // op length far beyond the input
	f.Add(uint8(0), []byte{0x80, 0x00, 0, 0})                                                        // client length 0 spelled in two bytes
	f.Add(uint8(2), []byte(`{"view":0,"seq":1,"digest":[],"replica":"p1"}`))                         // the JSON earlier binaries sent
	f.Fuzz(func(t *testing.T, sel uint8, body []byte) {
		typ := binaryTypes[int(sel)%len(binaryTypes)]
		var msg any
		var ok bool
		if got, limit := wiretest.AllocBytes(func() { msg, ok = decodeBody(typ, body) }), uint64(64*len(body)+1024); got > limit {
			t.Fatalf("%s: decoding %d bytes allocated %d (limit %d)", typ, len(body), got, limit)
		}
		if !ok {
			return
		}
		if again := appendBody(nil, msg); !bytes.Equal(again, body) {
			t.Fatalf("%s: accepted %x, which re-encodes to %x", typ, body, again)
		}
	})
}

// BenchmarkPBFTBroadcast12K is one 64-op pre-prepare crossing a
// four-replica shard: the primary encodes it once and MACs its header
// for three receivers ("seal"); each of the three opens its slot,
// decodes the request and hashes it against the digest ("open", all three
// per iteration).
func BenchmarkPBFTBroadcast12K(b *testing.B) {
	ids := []string{"p0", "p1", "p2", "p3"}
	n := len(ids)
	keys := make([]*macKey, n)
	for j, id := range ids {
		keys[j] = linkKey([]byte("master"), "p0", id)
	}
	req := &Request{Client: "chain/shard0/a1b2c3d4e5f6", Seq: 12345, Op: frame64()}
	pp := prePrepareMsg{View: 0, Seq: 12345, Digest: digestOf(req), Req: req}
	seal := func() []byte {
		payload := envelope(n, pp)
		for j := 1; j < n; j++ {
			sign(keys[j], n, j, msgPrePrepare, payload)
		}
		return payload
	}
	payload := seal()
	b.Run("seal", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			sinkBytes = seal()
		}
	})
	b.Run("open", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			for j := 1; j < n; j++ {
				body, ok := open(keys[j], n, j, msgPrePrepare, payload)
				if !ok {
					b.Fatal("envelope rejected")
				}
				if sinkPP, ok = decodePrePrepare(body); !ok || digestOf(sinkPP.Req) != sinkPP.Digest {
					b.Fatal("body rejected")
				}
			}
		}
	})
}

func BenchmarkDigestOf64(b *testing.B) {
	req := &Request{Client: "chain/shard0/a1b2c3d4e5f6", Seq: 12345, Op: frame64()}
	b.ReportAllocs()
	b.SetBytes(int64(len(req.Op)))
	for i := 0; i < b.N; i++ {
		sinkDigest = digestOf(req)
	}
}

var (
	sinkBytes  []byte
	sinkPP     prePrepareMsg
	sinkDigest Digest
)
