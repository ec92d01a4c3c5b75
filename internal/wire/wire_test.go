package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func TestReaderRoundTrip(t *testing.T) {
	b := binary.AppendUvarint(nil, 300)
	b = AppendString(b, "key\xff")
	b = AppendBytes(b, nil)
	b = AppendBytes(b, []byte{1, 2, 3})
	b = append(b, 7)
	b = append(b, "fixd"...)

	r := NewReader(b)
	if v := r.Uvarint(); v != 300 {
		t.Fatalf("Uvarint = %d", v)
	}
	if s := r.String(); s != "key\xff" {
		t.Fatalf("String = %q", s)
	}
	if p := r.Bytes(); p != nil {
		t.Fatalf("empty Bytes = %v, want nil", p)
	}
	if p := r.Bytes(); !bytes.Equal(p, []byte{1, 2, 3}) {
		t.Fatalf("Bytes = %v", p)
	}
	if c := r.Byte(); c != 7 {
		t.Fatalf("Byte = %d", c)
	}
	if r.Done() {
		t.Fatal("Done with 4 bytes left")
	}
	if p := r.Fixed(4); string(p) != "fixd" {
		t.Fatalf("Fixed = %q", p)
	}
	if !r.Done() {
		t.Fatal("not Done after the last field")
	}
}

func TestReaderRejects(t *testing.T) {
	cases := map[string]func(r *Reader){
		"empty uvarint":        func(r *Reader) { r.Uvarint() },
		"empty byte":           func(r *Reader) { r.Byte() },
		"short fixed":          func(r *Reader) { r.Fixed(1) },
		"empty bytes":          func(r *Reader) { r.Bytes() },
		"count of nothing":     func(r *Reader) { r.Count(1) },
		"explicit Fail":        func(r *Reader) { r.Fail() },
		"read after a failure": func(r *Reader) { r.Byte(); r.Uvarint() },
	}
	for name, read := range cases {
		r := NewReader(nil)
		read(&r)
		if r.OK() || r.Done() {
			t.Errorf("%s: reader still OK", name)
		}
	}
	inputs := map[string][]byte{
		"padded uvarint (0x80 0x00 is a second spelling of 0)": {0x80, 0x00},
		"unterminated uvarint":                                 {0x80},
		"uvarint past 64 bits":                                 bytes.Repeat([]byte{0xff}, 11),
	}
	for name, in := range inputs {
		r := NewReader(in)
		if v := r.Uvarint(); v != 0 || r.OK() {
			t.Errorf("%s: read %d, OK=%v", name, v, r.OK())
		}
	}
	// A length or count larger than what is left never reaches make.
	r := NewReader(binary.AppendUvarint(nil, 1<<40))
	if p := r.Bytes(); p != nil || r.OK() {
		t.Error("Bytes accepted a length beyond the input")
	}
	r = NewReader(append(binary.AppendUvarint(nil, 5), 1, 2, 3, 4))
	if n := r.Count(1); n != 0 || r.OK() {
		t.Errorf("Count(1) = %d with 4 bytes left for 5 elements", n)
	}
	r = NewReader(append(binary.AppendUvarint(nil, 2), 1, 2, 3, 4))
	if n := r.Count(2); n != 2 || !r.OK() {
		t.Errorf("Count(2) = %d, OK=%v; 4 bytes hold 2 elements of 2", n, r.OK())
	}
}
