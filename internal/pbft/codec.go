package pbft

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"hash"
	"sync"

	"prever/internal/wire"
)

// Wire formats. Every message travels in one envelope,
//
//	mac[32] | body        mac = HMAC-SHA256(pairwise key, body)
//
// and the five normal-case message types — the ones paid per request on
// every replica — have binary bodies (str and bytes are uvarint(len) |
// bytes, view and seq are uvarints, a digest is 32 raw bytes):
//
//	request:     client str | seq | op bytes
//	pre-prepare: view | seq | digest | uvarint count | request*
//	prepare:     view | seq | digest | replica str
//	commit:      view | seq | digest | replica str
//	checkpoint:  seq | state digest | replica str
//
// The receiver knows which decoder to run from netsim.Message.Type, so no
// body carries a tag. Decoders are strict: short, over-long and trailing
// input is refused. The four cold types (view-change, new-view, state
// request, state reply: nested certificates and state images, a handful
// per run) keep JSON bodies, as do WAL records and snapshots.

const macSize = sha256.Size

// minRequestBytes is the encoded size of the zero Request.
const minRequestBytes = 3

// macKey is one pairwise MAC key. hmac.New runs two SHA-256 key
// schedules, so each key keeps a pool of HMACs already keyed with it and
// a message costs a Reset, not a New. The MAC bytes are what hmac.New
// would give.
type macKey struct {
	pool sync.Pool
}

func newMACKey(key []byte) *macKey {
	k := &macKey{}
	k.pool.New = func() any { return hmac.New(sha256.New, key) }
	return k
}

// sum appends HMAC-SHA256(key, body) to dst.
func (k *macKey) sum(dst, body []byte) []byte {
	mac := k.pool.Get().(hash.Hash)
	mac.Reset()
	mac.Write(body)
	dst = mac.Sum(dst)
	k.pool.Put(mac)
	return dst
}

// seal wraps body in the envelope for one receiver.
func seal(key *macKey, body []byte) []byte {
	out := make([]byte, macSize, macSize+len(body))
	out = append(out, body...)
	key.sum(out[:0], body)
	return out
}

// open checks the envelope's MAC and returns the body, a sub-slice of
// payload. Nothing in the body is looked at before the MAC verifies.
func open(key *macKey, payload []byte) ([]byte, bool) {
	if key == nil || len(payload) < macSize {
		return nil, false
	}
	body := payload[macSize:]
	var sum [macSize]byte
	if !hmac.Equal(key.sum(sum[:0], body), payload[:macSize]) {
		return nil, false
	}
	return body, true
}

// encodeBody renders one message body: binary for the normal-case types,
// JSON for the cold ones.
func encodeBody(v any) []byte {
	switch m := v.(type) {
	case Request:
		return appendRequest(make([]byte, 0, len(m.Client)+len(m.Op)+16), &m)
	case prePrepareMsg:
		size := 64
		for i := range m.Batch {
			size += len(m.Batch[i].Client) + len(m.Batch[i].Op) + 16
		}
		b := make([]byte, 0, size)
		b = binary.AppendUvarint(b, m.View)
		b = binary.AppendUvarint(b, m.Seq)
		b = append(b, m.Digest[:]...)
		b = binary.AppendUvarint(b, uint64(len(m.Batch)))
		for i := range m.Batch {
			b = appendRequest(b, &m.Batch[i])
		}
		return b
	case prepareMsg:
		return appendVote(m)
	case commitMsg:
		return appendVote(prepareMsg(m))
	case checkpointMsg:
		b := make([]byte, 0, 48+len(m.Replica))
		b = binary.AppendUvarint(b, m.Seq)
		b = append(b, m.State[:]...)
		return wire.AppendString(b, m.Replica)
	}
	b, _ := json.Marshal(v)
	return b
}

func appendRequest(b []byte, r *Request) []byte {
	b = wire.AppendString(b, r.Client)
	b = binary.AppendUvarint(b, r.Seq)
	return wire.AppendBytes(b, r.Op)
}

// appendVote encodes a prepare; a commit has the same layout.
func appendVote(p prepareMsg) []byte {
	b := make([]byte, 0, 56+len(p.Replica))
	b = binary.AppendUvarint(b, p.View)
	b = binary.AppendUvarint(b, p.Seq)
	b = append(b, p.Digest[:]...)
	return wire.AppendString(b, p.Replica)
}

// readRequest consumes one request; Op is a sub-slice of the input.
func readRequest(r *wire.Reader) Request {
	return Request{Client: r.String(), Seq: r.Uvarint(), Op: r.Bytes()}
}

func readDigest(r *wire.Reader) (d Digest) {
	copy(d[:], r.Fixed(len(d)))
	return d
}

func decodeRequest(body []byte) (Request, bool) {
	r := wire.NewReader(body)
	req := readRequest(&r)
	return req, r.Done()
}

func decodePrePrepare(body []byte) (prePrepareMsg, bool) {
	r := wire.NewReader(body)
	pp := prePrepareMsg{View: r.Uvarint(), Seq: r.Uvarint(), Digest: readDigest(&r)}
	if n := r.Count(minRequestBytes); n > 0 {
		pp.Batch = make([]Request, n)
		for i := range pp.Batch {
			pp.Batch[i] = readRequest(&r)
		}
	}
	return pp, r.Done()
}

// decodeVote reads a prepare; a commit has the same layout.
func decodeVote(body []byte) (prepareMsg, bool) {
	r := wire.NewReader(body)
	p := prepareMsg{View: r.Uvarint(), Seq: r.Uvarint(), Digest: readDigest(&r), Replica: r.String()}
	return p, r.Done()
}

func decodeCheckpoint(body []byte) (checkpointMsg, bool) {
	r := wire.NewReader(body)
	c := checkpointMsg{Seq: r.Uvarint(), State: readDigest(&r), Replica: r.String()}
	return c, r.Done()
}

// digestOf identifies a request batch: SHA-256 over each request's
// len|client|seq|len|op, the fields self-delimiting so that no two
// batches share a preimage.
func digestOf(batch []Request) Digest {
	h := sha256.New()
	for i := range batch {
		r := &batch[i]
		hdr := make([]byte, 0, len(r.Client)+24)
		hdr = wire.AppendString(hdr, r.Client)
		hdr = binary.AppendUvarint(hdr, r.Seq)
		hdr = binary.AppendUvarint(hdr, uint64(len(r.Op)))
		h.Write(hdr)
		h.Write(r.Op)
	}
	var d Digest
	h.Sum(d[:0])
	return d
}
