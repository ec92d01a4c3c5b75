package pbft

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"hash"
	"slices"
	"sync"

	"prever/internal/wire"
)

// Wire formats. Every message travels in one envelope, encoded once per
// broadcast and handed to every receiver as it stands:
//
//	mac[32] × len(ids) | body
//	slot i = HMAC-SHA256(key from the sender to ids[i], tag | header)
//
// tag is the message type (netsim.Message.Type as a str), so a body
// relabelled as another type does not open. header is what the MACs
// cover: a pre-prepare's view | seq | digest, and every other type's
// whole body. This is Castro & Liskov's authenticator — a vector of MACs
// over a digest, one per receiver — so a pre-prepare's request is
// hashed once per replica, by the receiver that checks them against the
// authenticated digest (onPrePrepare), and MAC'd by nobody. A receiver
// checks its own slot before it decodes the request; a slot the
// sender did not fill (every slot but the receiver's, on a send to one
// replica) is zero and opens nowhere. Keys are per direction (linkKey):
// every receiver sees every slot, and with one key per pair a replica
// could copy the slot a peer filled for it into the peer's own index and
// hand it back as that peer's vote.
//
// The five normal-case message types — the ones paid per request on
// every replica — have binary bodies (str and bytes are uvarint(len) |
// bytes, view and seq are uvarints, a digest is 32 raw bytes):
//
//	request:     client str | seq | op bytes
//	pre-prepare: view | seq | digest | uvarint count | request?
//	prepare:     view | seq | digest
//	commit:      view | seq | digest
//	checkpoint:  seq | state digest
//
// A pre-prepare's count is 1, or 0 for a view change's null fill; a
// larger one is refused. A vote names no replica: it counts for the
// sender whose key its MAC opened under. The receiver knows which
// decoder to run from netsim.Message.Type, so no body carries a tag. Decoders are strict:
// short, over-long and trailing input is refused. The four cold types
// (view-change, new-view, state request, state reply: nested
// certificates and state images, a handful per run) keep JSON bodies, as
// do WAL records and snapshots. No durable record holds an envelope.

const macSize = sha256.Size

// macTags maps each message type to the tag its MACs begin with.
var macTags = func() map[string][]byte {
	tags := make(map[string][]byte)
	for _, t := range []string{msgRequest, msgPrePrepare, msgPrepare, msgCommit, msgCheckpoint, msgViewChange, msgNewView, msgStateReq, msgStateRep} {
		tags[t] = wire.AppendString(nil, t)
	}
	return tags
}()

// macKey is one directional MAC key. hmac.New runs two SHA-256 key
// schedules, so each key keeps a pool of HMACs already keyed with it and
// a message costs a Reset, not a New; the MAC bytes are what hmac.New
// would give. Each pooled HMAC carries the buffer its sum lands in, so
// checking a MAC allocates nothing.
type macKey struct {
	pool sync.Pool
}

type macState struct {
	h   hash.Hash
	sum [macSize]byte
}

func newMACKey(key []byte) *macKey {
	k := &macKey{}
	k.pool.New = func() any { return &macState{h: hmac.New(sha256.New, key)} }
	return k
}

// mac is HMAC-SHA256(key, tag | header), valid until s goes back to its pool.
func (s *macState) mac(tag, header []byte) []byte {
	s.h.Reset()
	s.h.Write(tag)
	s.h.Write(header)
	return s.h.Sum(s.sum[:0])
}

// put writes the MAC over tag | header into dst.
func (k *macKey) put(dst, tag, header []byte) {
	s := k.pool.Get().(*macState)
	copy(dst, s.mac(tag, header))
	k.pool.Put(s)
}

// check reports whether want is the MAC over tag | header.
func (k *macKey) check(want, tag, header []byte) bool {
	s := k.pool.Get().(*macState)
	ok := hmac.Equal(s.mac(tag, header), want)
	k.pool.Put(s)
	return ok
}

// macInput returns what the MACs of a msgType body cover: the type's
// tag and the body's header. It is false for a type this package never
// sends and for a pre-prepare too short to hold its header.
func macInput(msgType string, body []byte) (tag, header []byte, ok bool) {
	tag, ok = macTags[msgType]
	if !ok || msgType != msgPrePrepare {
		return tag, body, ok
	}
	r := wire.NewReader(body)
	r.Uvarint()
	r.Uvarint()
	r.Fixed(len(Digest{}))
	if !r.OK() {
		return nil, nil, false
	}
	return tag, body[:len(body)-r.Len()], true
}

// envelope is v encoded behind slots empty MAC slots.
func envelope(slots int, v any) []byte {
	return appendBody(make([]byte, slots*macSize), v)
}

// sign fills slot i of payload, an envelope of slots slots, with key's
// MAC over its msgType header.
func sign(key *macKey, slots, i int, msgType string, payload []byte) {
	tag, hdr, _ := macInput(msgType, payload[slots*macSize:])
	key.put(payload[i*macSize:(i+1)*macSize], tag, hdr)
}

// open checks slot i of payload, an envelope of slots slots, against
// key and returns the body, a sub-slice of payload. Nothing in the body
// but a pre-prepare's header is looked at before the MAC verifies.
func open(key *macKey, slots, i int, msgType string, payload []byte) ([]byte, bool) {
	if key == nil || len(payload) < slots*macSize {
		return nil, false
	}
	body := payload[slots*macSize:]
	tag, hdr, ok := macInput(msgType, body)
	if !ok || !key.check(payload[i*macSize:(i+1)*macSize], tag, hdr) {
		return nil, false
	}
	return body, true
}

// appendBody appends one message body to b: binary for the normal-case
// types, JSON for the cold ones.
func appendBody(b []byte, v any) []byte {
	switch m := v.(type) {
	case Request:
		return appendRequest(slices.Grow(b, len(m.Client)+len(m.Op)+16), &m)
	case prePrepareMsg:
		size := 64
		if m.Req != nil {
			size += len(m.Req.Client) + len(m.Req.Op) + 16
		}
		b = slices.Grow(b, size)
		b = binary.AppendUvarint(b, m.View)
		b = binary.AppendUvarint(b, m.Seq)
		b = append(b, m.Digest[:]...)
		if m.Req == nil {
			return append(b, 0)
		}
		return appendRequest(append(b, 1), m.Req)
	case prepareMsg:
		return appendVote(b, m)
	case commitMsg:
		return appendVote(b, prepareMsg(m))
	case checkpointMsg:
		b = binary.AppendUvarint(slices.Grow(b, 48), m.Seq)
		return append(b, m.State[:]...)
	}
	js, _ := json.Marshal(v)
	return append(b, js...)
}

func appendRequest(b []byte, r *Request) []byte {
	b = wire.AppendString(b, r.Client)
	b = binary.AppendUvarint(b, r.Seq)
	return wire.AppendBytes(b, r.Op)
}

// appendVote encodes a prepare; a commit has the same layout.
func appendVote(b []byte, p prepareMsg) []byte {
	b = slices.Grow(b, 56)
	b = binary.AppendUvarint(b, p.View)
	b = binary.AppendUvarint(b, p.Seq)
	return append(b, p.Digest[:]...)
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
	switch r.Uvarint() {
	case 0:
	case 1:
		req := readRequest(&r)
		pp.Req = &req
	default:
		r.Fail()
	}
	return pp, r.Done()
}

// decodeVote reads a prepare; a commit has the same layout.
func decodeVote(body []byte) (prepareMsg, bool) {
	r := wire.NewReader(body)
	p := prepareMsg{View: r.Uvarint(), Seq: r.Uvarint(), Digest: readDigest(&r)}
	return p, r.Done()
}

func decodeCheckpoint(body []byte) (checkpointMsg, bool) {
	r := wire.NewReader(body)
	c := checkpointMsg{Seq: r.Uvarint(), State: readDigest(&r)}
	return c, r.Done()
}

// digestOf identifies an instance's request: SHA-256 over its
// len|client|seq|len|op, the fields self-delimiting so that no two
// requests share a preimage. A null fill (nil) hashes nothing.
func digestOf(req *Request) Digest {
	h := sha256.New()
	if req != nil {
		hdr := make([]byte, 0, len(req.Client)+24)
		hdr = wire.AppendString(hdr, req.Client)
		hdr = binary.AppendUvarint(hdr, req.Seq)
		hdr = binary.AppendUvarint(hdr, uint64(len(req.Op)))
		h.Write(hdr)
		h.Write(req.Op)
	}
	var d Digest
	h.Sum(d[:0])
	return d
}
