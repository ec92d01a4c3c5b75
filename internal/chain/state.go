package chain

import (
	"sync"

	"prever/internal/store"
)

// worldState is a peer's key-value state: the latest value per key and
// nothing else. The chain is the history — nothing reads a peer's past
// versions — so a put to a key that exists overwrites its value in place
// instead of appending a version (store.KV keeps every version, which is
// what the ledger and the engines need and a peer does not). It has its
// own lock so reads do not wait for a whole block to apply.
type worldState struct {
	mu sync.RWMutex
	m  map[string][]byte
}

func newWorldState() *worldState { return &worldState{m: make(map[string][]byte)} }

// get returns a copy of key's value, or store.ErrNotFound.
func (s *worldState) get(key string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.m[key]
	if !ok {
		return nil, store.ErrNotFound
	}
	return append(make([]byte, 0, len(v)), v...), nil
}

func (s *worldState) has(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.m[key]
	return ok
}

// put copies value under key.
func (s *worldState) put(key string, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[key]
	if ok && len(v) == len(value) {
		copy(v, value) // no map assign: the entry already holds this slice
		return
	}
	s.m[key] = append(v[:0], value...)
}

func (s *worldState) delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, key)
}

// adopt replaces s's contents with o's; o must not be used afterwards.
func (s *worldState) adopt(o *worldState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m = o.m
}
