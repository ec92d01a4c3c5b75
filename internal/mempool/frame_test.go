package mempool

import (
	"bytes"
	"testing"

	"prever/internal/wire/wiretest"
)

func TestBatchFrameGolden(t *testing.T) {
	ops := [][]byte{[]byte("a"), []byte(""), []byte("op-3")}
	want := wiretest.Golden(t, "testdata/frame3.hex", EncodeBatch(ops))
	got, ok := DecodeBatch(want)
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

// TestDecodeBatchAllocs: the ops are sub-slices of the frame, so a decode
// allocates the slice of them and nothing per op.
func TestDecodeBatchAllocs(t *testing.T) {
	frame := EncodeBatch(ops64())
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := DecodeBatch(frame); !ok {
			t.Fatal("frame rejected")
		}
	}); n > 2 {
		t.Fatalf("DecodeBatch of 64 ops allocates %.0f times, want <= 2", n)
	}
}

// FuzzDecodeBatch: DecodeBatch sits where replicated bytes re-enter the
// application, so it must never panic, must refuse anything that is not
// exactly one framed batch, must not let a forged count size an
// allocation, and whatever it accepts must re-encode to the same bytes.
// `go test` runs the seed corpus; `go test -fuzz FuzzDecodeBatch` mutates it.
func FuzzDecodeBatch(f *testing.F) {
	// The JSON frame earlier binaries wrote. It is not a batch any more:
	// directories that hold it are refused by their FORMAT stamp, and a
	// stray one must not half-decode.
	const v1 = `pbB1["YQ==","","b3AtMw=="]`
	if ops, ok := DecodeBatch([]byte(v1)); ok || ops != nil {
		f.Fatalf("the pbB1 frame decoded (ok=%v, %d ops)", ok, len(ops))
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
		var ops [][]byte
		var ok bool
		if got, limit := wiretest.AllocBytes(func() { ops, ok = DecodeBatch(v) }), uint64(64*len(v)+1024); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(v), got, limit)
		}
		if !ok {
			if ops != nil {
				t.Fatalf("rejected value still returned %d ops", len(ops))
			}
			return
		}
		if again := EncodeBatch(ops); !bytes.Equal(again, v) {
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
			if sinkOps, ok = DecodeBatch(frame); !ok {
				b.Fatal("frame rejected")
			}
		}
	})
}

var (
	sinkFrame []byte
	sinkOps   [][]byte
)
