package pbft

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"prever/internal/mempool"
	"prever/internal/netsim"
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
	d := digestOf([]Request{{Client: "c", Seq: 7, Op: []byte("op")}})
	return map[string]any{
		msgRequest:    Request{Client: "chain/s0/0a1b", Seq: 300, Op: []byte("op")},
		msgPrePrepare: prePrepareMsg{View: 1, Seq: 129, Digest: d, Batch: []Request{{Client: "c", Seq: 7, Op: []byte("op")}, {Client: "", Seq: 0}}},
		msgPrepare:    prepareMsg{View: 1, Seq: 129, Digest: d, Replica: "s0/peer2"},
		msgCommit:     commitMsg{View: 1, Seq: 129, Digest: d, Replica: "s0/peer3"},
		msgCheckpoint: checkpointMsg{Seq: 256, State: d, Replica: "s0/peer1"},
	}
}

func TestMessageRoundTrip(t *testing.T) {
	for typ, msg := range sampleMsgs() {
		body := encodeBody(msg)
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
	if got, ok := decodePrePrepare(encodeBody(null)); !ok || !reflect.DeepEqual(got, null) {
		t.Errorf("null pre-prepare: decoded %+v (ok=%v)", got, ok)
	}
}

func TestPrePrepareGolden(t *testing.T) {
	batch := []Request{{Client: "chain/s0/0a1b", Seq: 300, Op: []byte("pbB2\x01\x02op")}}
	pp := prePrepareMsg{View: 1, Seq: 129, Digest: digestOf(batch), Batch: batch}
	key := pairKey([]byte("golden master key"), "s0/peer0", "s0/peer1")
	want := wiretest.Golden(t, "testdata/preprepare.hex", seal(key, encodeBody(pp)))
	body, ok := open(key, want)
	if !ok {
		t.Fatal("golden envelope does not open")
	}
	if dec, ok := decodePrePrepare(body); !ok || !reflect.DeepEqual(dec, pp) || digestOf(dec.Batch) != dec.Digest {
		t.Fatalf("golden body decodes to %+v (ok=%v)", dec, ok)
	}
}

// TestDigestInjective: the digest covers length-prefixed fields, so
// moving a byte across a field or a request boundary changes it.
func TestDigestInjective(t *testing.T) {
	req := func(client string, seq uint64, op string) Request {
		return Request{Client: client, Seq: seq, Op: []byte(op)}
	}
	batches := map[string][]Request{
		"ab|1|c":              {req("ab", 1, "c")},
		"a|1|bc":              {req("a", 1, "bc")},
		"abc|1|":              {req("abc", 1, "")},
		"|1|abc":              {req("", 1, "abc")},
		"ab|2|c":              {req("ab", 2, "c")},
		"ab|257|c":            {req("ab", 257, "c")},
		"two requests":        {req("a", 1, "x"), req("a", 2, "y")},
		"two, swapped":        {req("a", 2, "y"), req("a", 1, "x")},
		"one, ops joined":     {req("a", 1, "xy")},
		"one, second spliced": {req("a", 1, "x\x01a\x02\x01y")}, // the second request's encoding appended to the first's op
		"empty request":       {req("", 0, "")},
		"two empty requests":  {req("", 0, ""), req("", 0, "")},
		"no request":          nil,
	}
	seen := map[Digest]string{}
	for name, b := range batches {
		d := digestOf(b)
		if other, dup := seen[d]; dup {
			t.Errorf("%q and %q share a digest", name, other)
		}
		seen[d] = name
		if digestOf(b) != d {
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
	for _, r := range c.replicas[1:] {
		for _, from := range []string{"p2", "p3"} { // f+1 claims of view 1
			r.onStateRep(from, stateRepMsg{Replica: from, View: 1})
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the new primary never proposed the request it was watching")
	}
}

// FuzzOpen: the envelope is the first thing run over bytes from the
// network. open must never panic, must refuse anything whose MAC does
// not verify — too short to hold one, a flipped bit anywhere — and a
// body that does verify but is garbage must fall to the decoders'
// checks, not through them.
func FuzzOpen(f *testing.F) {
	key := pairKey([]byte("master"), "p0", "p1")
	f.Add([]byte(nil), uint(0))                                                 // shorter than a MAC
	f.Add(bytes.Repeat([]byte{0}, macSize-1), uint(3))                          // one byte short of a MAC
	f.Add([]byte(`{"body":"e30=","mac":"AAAA"}`), uint(0))                      // the envelope earlier binaries sent
	f.Add(encodeBody(sampleMsgs()[msgPrePrepare]), uint(5))                     // flips a MAC byte
	f.Add(encodeBody(sampleMsgs()[msgPrepare]), uint(macSize+2))                // flips a body byte
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff garbage"), uint(40)) // valid MAC over a garbage body
	f.Fuzz(func(t *testing.T, body []byte, flip uint) {
		// Raw fuzz input as a payload: it carries no valid MAC.
		if _, ok := open(key, body); ok {
			t.Fatalf("unauthenticated payload %x opened", body)
		}
		if _, ok := open(nil, body); ok {
			t.Fatal("payload opened for a sender with no key")
		}
		sealed := seal(key, body)
		got, ok := open(key, sealed)
		if !ok || !bytes.Equal(got, body) {
			t.Fatalf("sealed body did not open to itself (ok=%v)", ok)
		}
		if _, ok := open(pairKey([]byte("master"), "p0", "p2"), sealed); ok {
			t.Fatal("envelope opened under another pair's key")
		}
		for _, typ := range binaryTypes {
			decodeBody(typ, got) // authenticated garbage: must not panic
		}
		if _, ok := open(key, sealed[:len(sealed)-1]); ok {
			t.Fatal("truncated envelope opened")
		}
		i := int(flip % uint(len(sealed)))
		sealed[i] ^= 0x01
		if _, ok := open(key, sealed); ok {
			t.Fatalf("envelope opened with byte %d flipped", i)
		}
	})
}

// FuzzDecodeMsg: each of the five binary decoders must never panic, never
// allocate beyond a multiple of its input, and accept only what
// encodeBody writes — so an accepted body re-encodes to itself, which
// rules out trailing input too.
func FuzzDecodeMsg(f *testing.F) {
	for i, typ := range binaryTypes {
		body := encodeBody(sampleMsgs()[typ])
		f.Add(uint8(i), body)
		f.Add(uint8(i), body[:len(body)/2])
		f.Add(uint8(i), append(append([]byte{}, body...), 0))
		f.Add(uint8(i), []byte(nil))
	}
	f.Add(uint8(1), encodeBody(prePrepareMsg{Batch: []Request{{Op: frame64()}}}))
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
		if again := encodeBody(msg); !bytes.Equal(again, body) {
			t.Fatalf("%s: accepted %x, which re-encodes to %x", typ, body, again)
		}
	})
}

func BenchmarkPBFTSealOpen12K(b *testing.B) {
	batch := []Request{{Client: "chain/shard0/a1b2c3d4e5f6", Seq: 12345, Op: frame64()}}
	pp := prePrepareMsg{View: 0, Seq: 12345, Digest: digestOf(batch), Batch: batch}
	key := pairKey([]byte("master"), "p0", "p1")
	payload := seal(key, encodeBody(pp))
	b.Run("seal", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			sinkBytes = seal(key, encodeBody(pp))
		}
	})
	b.Run("open", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			body, ok := open(key, payload)
			if !ok {
				b.Fatal("envelope rejected")
			}
			if sinkPP, ok = decodePrePrepare(body); !ok {
				b.Fatal("body rejected")
			}
		}
	})
}

func BenchmarkDigestOf64(b *testing.B) {
	batch := []Request{{Client: "chain/shard0/a1b2c3d4e5f6", Seq: 12345, Op: frame64()}}
	b.ReportAllocs()
	b.SetBytes(int64(len(batch[0].Op)))
	for i := 0; i < b.N; i++ {
		sinkDigest = digestOf(batch)
	}
}

var (
	sinkBytes  []byte
	sinkPP     prePrepareMsg
	sinkDigest Digest
)
