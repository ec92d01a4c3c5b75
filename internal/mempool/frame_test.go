package mempool

import (
	"bytes"
	"testing"
)

// FuzzDecodeBatch: DecodeBatch sits where replicated bytes re-enter the
// application, so it must never panic, must refuse anything that is not
// a framed batch, and whatever it accepts must survive a re-encode.
// `go test` runs the seed corpus; `go test -fuzz FuzzDecodeBatch` mutates it.
func FuzzDecodeBatch(f *testing.F) {
	ops := [][]byte{[]byte("a"), []byte(""), []byte("op-3")}
	// The frame as the commit before the codecs were merged wrote it into
	// replica WALs: data directories from then must still decode, and new
	// ones must stay readable by it.
	const onDisk = `pbB1["YQ==","","b3AtMw=="]`
	if got := EncodeBatch(ops); string(got) != onDisk {
		f.Fatalf("EncodeBatch = %q, want the on-disk form %q", got, onDisk)
	}
	got, ok := DecodeBatch([]byte(onDisk))
	if !ok || len(got) != len(ops) {
		f.Fatalf("on-disk frame decoded to %d ops (ok=%v), want %d", len(got), ok, len(ops))
	}
	for i := range ops {
		if !bytes.Equal(got[i], ops[i]) {
			f.Fatalf("on-disk frame op %d = %q, want %q", i, got[i], ops[i])
		}
	}

	f.Add([]byte(onDisk))
	f.Add(EncodeBatch(nil))
	f.Add([]byte(nil))
	f.Add([]byte("bare value"))
	f.Add([]byte(`pbB2["YQ=="]`))          // wrong magic
	f.Add([]byte("pbB1 not json"))         // right magic, corrupt body
	f.Add([]byte(onDisk[:len(onDisk)-4]))  // truncated JSON
	f.Add([]byte(`pbB1{"not":"a list"}`))  // JSON of the wrong shape
	f.Add([]byte("pbB1"))                  // magic alone
	f.Add([]byte(`pbB1["not base64 !!"]`)) // element that is not base64
	f.Fuzz(func(t *testing.T, v []byte) {
		ops, ok := DecodeBatch(v)
		if !ok {
			if ops != nil {
				t.Fatalf("rejected value still returned %d ops", len(ops))
			}
			return
		}
		if !bytes.HasPrefix(v, batchMagic) {
			t.Fatalf("value without the magic decoded as a batch: %q", v)
		}
		again, ok := DecodeBatch(EncodeBatch(ops))
		if !ok || len(again) != len(ops) {
			t.Fatalf("re-encoded batch decoded to %d ops (ok=%v), want %d", len(again), ok, len(ops))
		}
		for i := range ops {
			if !bytes.Equal(again[i], ops[i]) {
				t.Fatalf("op %d = %q after a round trip, was %q", i, again[i], ops[i])
			}
		}
	})
}
