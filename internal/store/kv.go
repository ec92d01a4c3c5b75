package store

import (
	"errors"
	"sort"
	"sync"
)

// ErrNotFound is returned by reads of keys that do not exist.
var ErrNotFound = errors.New("store: key not found")

// KV is a key-value store holding each key's latest value; a key, once
// written, is never removed. The zero value is not usable; call NewKV.
type KV struct {
	mu   sync.RWMutex
	data map[string][]byte
}

// NewKV returns an empty store.
func NewKV() *KV {
	return &KV{data: make(map[string][]byte)}
}

// Put writes value under key. The value slice is copied; callers may
// reuse their buffer.
func (kv *KV) Put(key string, value []byte) {
	cp := make([]byte, len(value))
	copy(cp, value)
	kv.mu.Lock()
	defer kv.mu.Unlock()
	kv.data[key] = cp
}

// Get returns a copy of key's value.
func (kv *KV) Get(key string) ([]byte, error) {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	v, ok := kv.data[key]
	if !ok {
		return nil, ErrNotFound
	}
	return append([]byte(nil), v...), nil
}

// Keys returns all keys, sorted.
func (kv *KV) Keys() []string {
	kv.mu.RLock()
	keys := make([]string, 0, len(kv.data))
	for k := range kv.data {
		keys = append(keys, k)
	}
	kv.mu.RUnlock()
	sort.Strings(keys)
	return keys
}

// Range calls fn for each (key, value) pair in key order, stopping early
// if fn returns false. Each value is the key's latest when Range reaches
// it.
func (kv *KV) Range(fn func(key string, value []byte) bool) {
	for _, k := range kv.Keys() {
		v, err := kv.Get(k)
		if err != nil {
			continue
		}
		if !fn(k, v) {
			return
		}
	}
}
