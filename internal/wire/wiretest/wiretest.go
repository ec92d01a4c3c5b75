// Package wiretest holds what the codecs' tests share.
package wiretest

import (
	"bytes"
	"encoding/hex"
	"os"
	"runtime"
	"strings"
	"testing"
)

// Golden checks got against a hex golden file (whitespace is layout only)
// and returns the file's bytes: the format as committed, so a change to it
// cannot land without a diff that shows it. The tx, the batch frame and
// the PBFT messages are all on disk in every durable peer directory under
// one stamp, which a format change must bump along with the golden file.
func Golden(t testing.TB, path string, got []byte) []byte {
	t.Helper()
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.Join(strings.Fields(string(text)), ""))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoded %x\n%s holds %x\nif the format is meant to change, bump pbft.dataFormat (internal/pbft/durable.go) so older -data directories are refused, then update the golden file", got, path, want)
	}
	return want
}

// AllocBytes reports how many heap bytes one call of f allocates: the
// smallest of three measurements, so an allocation some other goroutine
// happened to make meanwhile does not count against f. Decoder fuzz
// targets bound it by a multiple of the input's length — a forged count
// or length must not size an allocation.
func AllocBytes(f func()) uint64 {
	best := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d < best {
			best = d
		}
	}
	return best
}
