package store

import (
	"errors"
	"sort"
	"sync"
)

// ErrNotFound is returned by reads of keys that do not exist (at the read's
// version).
var ErrNotFound = errors.New("store: key not found")

// kvVersion is one entry in a key's version chain.
type kvVersion struct {
	version uint64
	value   []byte
	deleted bool
}

// KV is a multi-version key-value store. Every write is stamped with a
// monotonically increasing version; a Snapshot captures a version and reads
// through it see the store exactly as of that version. The zero value is
// not usable; call NewKV.
type KV struct {
	mu      sync.RWMutex
	version uint64
	data    map[string][]kvVersion
}

// NewKV returns an empty store at version 0.
func NewKV() *KV {
	return &KV{data: make(map[string][]kvVersion)}
}

// Version returns the current (latest) version.
func (kv *KV) Version() uint64 {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return kv.version
}

// Put writes value under key and returns the new store version. The value
// slice is copied; callers may reuse their buffer.
func (kv *KV) Put(key string, value []byte) uint64 {
	cp := make([]byte, len(value))
	copy(cp, value)
	kv.mu.Lock()
	defer kv.mu.Unlock()
	kv.version++
	kv.data[key] = append(kv.data[key], kvVersion{version: kv.version, value: cp})
	return kv.version
}

// Delete removes key and returns the new store version. Deleting an absent
// key still advances the version (it records a tombstone) so that history
// replays deterministically.
func (kv *KV) Delete(key string) uint64 {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	kv.version++
	kv.data[key] = append(kv.data[key], kvVersion{version: kv.version, deleted: true})
	return kv.version
}

// Get returns the latest value for key.
func (kv *KV) Get(key string) ([]byte, error) {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return kv.getAtLocked(key, kv.version)
}

// GetAt returns the value of key as of the given version.
func (kv *KV) GetAt(key string, version uint64) ([]byte, error) {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return kv.getAtLocked(key, version)
}

func (kv *KV) getAtLocked(key string, version uint64) ([]byte, error) {
	chain := kv.data[key]
	// Binary search for the last version <= requested.
	i := sort.Search(len(chain), func(i int) bool { return chain[i].version > version })
	if i == 0 {
		return nil, ErrNotFound
	}
	entry := chain[i-1]
	if entry.deleted {
		return nil, ErrNotFound
	}
	out := make([]byte, len(entry.value))
	copy(out, entry.value)
	return out, nil
}

// Snapshot captures the current version for consistent reads.
func (kv *KV) Snapshot() Snapshot {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return Snapshot{kv: kv, version: kv.version}
}

// Keys returns all live keys at the latest version, sorted.
func (kv *KV) Keys() []string {
	return kv.Snapshot().Keys()
}

// Len returns the number of live keys at the latest version.
func (kv *KV) Len() int {
	return len(kv.Keys())
}

// Snapshot is a consistent read view of a KV at a fixed version.
type Snapshot struct {
	kv      *KV
	version uint64
}

// Version returns the snapshot's version.
func (s Snapshot) Version() uint64 { return s.version }

// Get reads key as of the snapshot.
func (s Snapshot) Get(key string) ([]byte, error) {
	return s.kv.GetAt(key, s.version)
}

// Keys returns the live keys at the snapshot, sorted.
func (s Snapshot) Keys() []string {
	s.kv.mu.RLock()
	defer s.kv.mu.RUnlock()
	var keys []string
	for k, chain := range s.kv.data {
		i := sort.Search(len(chain), func(i int) bool { return chain[i].version > s.version })
		if i == 0 || chain[i-1].deleted {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Range calls fn for each live (key, value) pair at the snapshot in key
// order, stopping early if fn returns false.
func (s Snapshot) Range(fn func(key string, value []byte) bool) {
	for _, k := range s.Keys() {
		v, err := s.Get(k)
		if err != nil {
			continue // deleted concurrently after Keys(); skip
		}
		if !fn(k, v) {
			return
		}
	}
}
