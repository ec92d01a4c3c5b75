package chain

import (
	"prever/internal/store"
)

// worldState is a peer's key-value state: the latest value per key and
// nothing else. The chain is the history — nothing reads a peer's past
// versions — so a put to a key that exists overwrites its value in place
// instead of appending a version (store.KV keeps every version, which is
// what the ledger and the engines need and a peer does not). It holds no
// lock: its peer's view lock guards it (see Peer).
type worldState map[string][]byte

// get returns a copy of key's value, or store.ErrNotFound.
func (s worldState) get(key string) ([]byte, error) {
	v, ok := s[key]
	if !ok {
		return nil, store.ErrNotFound
	}
	return append(make([]byte, 0, len(v)), v...), nil
}

// has, put and delete take the key as the applier reads it, in the
// committed bytes; a key is copied out only when it is new to the map or
// its value changes length.
func (s worldState) has(key []byte) bool {
	_, ok := s[string(key)]
	return ok
}

// put copies value under key.
func (s worldState) put(key, value []byte) {
	v, ok := s[string(key)]
	if ok && len(v) == len(value) {
		copy(v, value) // no map assign: the entry already holds this slice
		return
	}
	s[string(key)] = append(v[:0], value...)
}

func (s worldState) delete(key []byte) { delete(s, string(key)) }
