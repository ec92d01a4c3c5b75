package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Records and snapshots are opaque to this package, and segments carry no
// marker of what their owner wrote into them. A FORMAT file beside them
// names the owner's record format, so a binary that reads a different one
// can refuse the directory instead of replaying records it would
// misread.

const formatFile = "FORMAT"

// ErrFormat reports a log directory written in a record format other
// than the one the caller reads. The wrapped message names both.
var ErrFormat = errors.New("wal: data directory format mismatch")

// CheckFormat verifies that dir holds records in the given format, and
// stamps a directory that holds none yet. Call it before Open, which
// repairs and extends what it finds: a directory CheckFormat refuses is
// left exactly as it was. A directory with segments or snapshots but no
// stamp predates stamping and is refused like one with another stamp.
func CheckFormat(dir, format string) error {
	b, err := os.ReadFile(filepath.Join(dir, formatFile))
	switch {
	case err == nil:
		if held := strings.TrimSpace(string(b)); held != format {
			return fmt.Errorf("%w: %s holds %q, this binary reads %q", ErrFormat, dir, held, format)
		}
		return nil
	case !errors.Is(err, os.ErrNotExist):
		return fmt.Errorf("wal: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("wal: %w", err)
	}
	for _, e := range ents {
		_, seg := parseNumbered(e.Name(), segPrefix, segSuffix)
		_, snap := parseNumbered(e.Name(), snapPrefix, snapSuffix)
		if seg || snap {
			return fmt.Errorf("%w: %s holds an unstamped log (written before format stamps), this binary reads %q",
				ErrFormat, dir, format)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	// Temp-then-rename: a crash leaves no stamp or a whole one. Open
	// sweeps a stray temp file.
	path := filepath.Join(dir, formatFile)
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	_, werr := f.WriteString(format + "\n")
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, path)
	}
	if werr != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("wal: %w", werr)
	}
	return syncDir(dir)
}
