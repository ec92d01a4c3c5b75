package wal

import (
	"bytes"
	"testing"

	"prever/internal/wire/wiretest"
)

// FuzzNextFrame: segment and snapshot files are read back after a crash,
// so their bytes are whatever the disk kept. nextFrame never panics on
// them, never sizes an allocation from a forged length, and every frame
// it accepts is exactly what writeFramed writes for that payload. `go
// test` runs the seed corpus; `make fuzz-smoke` mutates it.
func FuzzNextFrame(f *testing.F) {
	frame := func(payloads ...string) []byte {
		var buf bytes.Buffer
		for _, p := range payloads {
			if err := writeFramed(&buf, []byte(p)); err != nil {
				f.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	good := frame("record-1")
	f.Add(good)
	f.Add(frame(""))
	f.Add(frame("a", "", "third record"))
	f.Add([]byte(nil))
	f.Add(good[:frameHeader-1])                            // short header
	f.Add(good[:len(good)-1])                              // torn payload
	f.Add(append(frame("a"), good[:len(good)-3]...))       // torn tail after a good frame
	f.Add(append([]byte{0xFF, 0xFF, 0xFF, 0xFF}, good...)) // length far beyond the input and the limit
	f.Add(append([]byte{0x00, 0x00, 0x00, 0x10}, good...)) // length at the limit, beyond the input
	flipped := append([]byte{}, good...)
	flipped[len(flipped)-1] ^= 1
	f.Add(flipped) // CRC mismatch
	f.Fuzz(func(t *testing.T, v []byte) {
		scan := func() (frames int) {
			for b := v; ; frames++ {
				_, rest, ok := nextFrame(b)
				if !ok {
					return frames
				}
				b = rest
			}
		}
		var frames int
		if got, limit := wiretest.AllocBytes(func() { frames = scan() }), uint64(64*len(v)+1024); got > limit {
			t.Fatalf("scanning %d bytes allocated %d (limit %d)", len(v), got, limit)
		}
		b := v
		for i := 0; i < frames; i++ {
			payload, rest, ok := nextFrame(b)
			if !ok {
				t.Fatalf("frame %d of %d rejected on the second scan", i, frames)
			}
			var again bytes.Buffer
			if err := writeFramed(&again, payload); err != nil {
				t.Fatal(err)
			}
			if consumed := b[:len(b)-len(rest)]; !bytes.Equal(again.Bytes(), consumed) {
				t.Fatalf("accepted %x, which re-encodes to %x", consumed, again.Bytes())
			}
			b = rest
		}
		if payload, rest, ok := nextFrame(b); ok || payload != nil || rest != nil {
			t.Fatalf("rejected bytes still returned a payload of %d and a rest of %d bytes", len(payload), len(rest))
		}
	})
}
