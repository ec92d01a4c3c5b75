package mempool

import (
	"bytes"
	"testing"

	"prever/internal/wire/wiretest"
)

func TestBatchFrameGolden(t *testing.T) {
	ops := [][]byte{[]byte("a"), []byte(""), []byte("op-3")}
	want := wiretest.Golden(t, "testdata/frame3.hex", EncodeBatch(ops))
	run, ok := DecodeBatch(want)
	got := wiretest.Split(run)
	if !ok || len(got) != len(ops) {
		t.Fatalf("golden frame decoded to %d ops (ok=%v), want %d", len(got), ok, len(ops))
	}
	for i := range ops {
		if !bytes.Equal(got[i], ops[i]) {
			t.Fatalf("golden frame op %d = %q, want %q", i, got[i], ops[i])
		}
	}
}

// ops64 is the benchmark's shape: a full batch of ~100-byte operations.
func ops64() [][]byte {
	ops := make([][]byte, 64)
	for i := range ops {
		ops[i] = bytes.Repeat([]byte{byte(i)}, 100)
	}
	return ops
}

// TestDecodeBatchAllocs: a decode hands out the ops' run inside the
// frame, so it allocates nothing.
func TestDecodeBatchAllocs(t *testing.T) {
	frame := EncodeBatch(ops64())
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := DecodeBatch(frame); !ok {
			t.Fatal("frame rejected")
		}
	}); n != 0 {
		t.Fatalf("DecodeBatch of 64 ops allocates %.0f times, want 0", n)
	}
}

// FuzzDecodeBatch: DecodeBatch sits where replicated bytes re-enter the
// application, so it must never panic, must refuse anything that is not
// exactly one framed batch, must not let a forged count size an
// allocation, and what it accepts must be the tail of v, and the ops
// split from it must re-encode to v: the run is the ops' own
// (len | op)*, the block body a chain peer keeps of it.
// `go test` runs the seed corpus; `go test -fuzz FuzzDecodeBatch` mutates it.
func FuzzDecodeBatch(f *testing.F) {
	// The JSON frame earlier binaries wrote. It is not a batch any more:
	// directories that hold it are refused by their FORMAT stamp, and a
	// stray one must not half-decode.
	const v1 = `pbB1["YQ==","","b3AtMw=="]`
	if run, ok := DecodeBatch([]byte(v1)); ok || run != nil {
		f.Fatalf("the pbB1 frame decoded (ok=%v, run %x)", ok, run)
	}
	good := EncodeBatch([][]byte{[]byte("a"), []byte(""), []byte("op-3")})

	f.Add([]byte(v1))
	f.Add(good)
	f.Add(EncodeBatch(nil))
	f.Add(EncodeBatch(ops64()))
	f.Add([]byte(nil))
	f.Add([]byte("bare value"))
	f.Add([]byte("pbB2"))                                         // magic alone
	f.Add(good[:len(good)-1])                                     // truncated
	f.Add(append(append([]byte{}, good...), 0))                   // trailing byte
	f.Add([]byte("pbB2\xff\xff\xff\xff\x0f"))                     // count far beyond the input
	f.Add([]byte("pbB2\x01\xff\xff\xff\xff\x0fx"))                // op length far beyond the input
	f.Add([]byte("pbB2\x80\x00"))                                 // count 0 spelled in two bytes
	f.Add([]byte("pbB2\x01\x81\x00x"))                            // op length 1 spelled in two bytes
	f.Add([]byte("pbB2\xff\xff\xff\xff\xff\xff\xff\xff\xff\x7f")) // uvarint overflow
	f.Fuzz(func(t *testing.T, v []byte) {
		var run []byte
		var ok bool
		if got, limit := wiretest.AllocBytes(func() { run, ok = DecodeBatch(v) }), uint64(64*len(v)+1024); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(v), got, limit)
		}
		if !ok {
			if run != nil {
				t.Fatalf("rejected value still returned run %x", run)
			}
			return
		}
		if len(run) > 0 && &run[len(run)-1] != &v[len(v)-1] {
			t.Fatalf("DecodeBatch(%x) = %x: not the tail of the frame", v, run)
		}
		if again := EncodeBatch(wiretest.Split(run)); !bytes.Equal(again, v) {
			t.Fatalf("accepted %x, which re-encodes to %x", v, again)
		}
	})
}

func BenchmarkBatchFrame64(b *testing.B) {
	ops := ops64()
	frame := EncodeBatch(ops)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(frame)))
		for i := 0; i < b.N; i++ {
			sinkFrame = EncodeBatch(ops)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(frame)))
		for i := 0; i < b.N; i++ {
			var ok bool
			if sinkRun, ok = DecodeBatch(frame); !ok {
				b.Fatal("frame rejected")
			}
		}
	})
}

var (
	sinkFrame []byte
	sinkRun   []byte
)
