package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

var (
	loaderOnce sync.Once
	testLdr    *Loader
	loaderErr  error
)

// loader returns one shared Loader for all tests: the stdlib source
// importer caches parsed dependencies, so sharing it keeps the suite fast.
func loader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			loaderErr = err
			return
		}
		testLdr, loaderErr = NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatal(loaderErr)
	}
	return testLdr
}

func analyzerByName(t *testing.T, name string) *Analyzer {
	t.Helper()
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer named %q", name)
	return nil
}

// wantMarkers scans the fixture sources for "// want <analyzer>" markers
// and returns the expected "file:line" positions.
func wantMarkers(t *testing.T, dir, analyzer string) map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]bool)
	marker := "// want " + analyzer
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if strings.Contains(line, marker) {
				want[fmt.Sprintf("%s:%d", e.Name(), i+1)] = true
			}
		}
	}
	return want
}

// checkFixture loads testdata/<fixture> under asPath, runs exactly one
// analyzer, and asserts the reported positions match the want markers.
func checkFixture(t *testing.T, analyzer, fixture, asPath string) {
	t.Helper()
	dir := filepath.Join("testdata", fixture)
	p, err := loader(t).loadDir(dir, asPath)
	if err != nil {
		t.Fatal(err)
	}
	findings := Run([]*Package{p}, []*Analyzer{analyzerByName(t, analyzer)})
	got := make(map[string]bool)
	for _, f := range findings {
		if f.Analyzer != analyzer {
			t.Errorf("unexpected analyzer %q in finding %v", f.Analyzer, f)
			continue
		}
		got[fmt.Sprintf("%s:%d", filepath.Base(f.Pos.Filename), f.Pos.Line)] = true
	}
	want := wantMarkers(t, dir, analyzer)
	for pos := range want {
		if !got[pos] {
			t.Errorf("%s: expected %s finding at %s, got none", fixture, analyzer, pos)
		}
	}
	for pos := range got {
		if !want[pos] {
			t.Errorf("%s: unexpected %s finding at %s", fixture, analyzer, pos)
		}
	}
}

// checkOutOfScope loads the same fixture under a path outside the
// analyzer's scope and asserts silence.
func checkOutOfScope(t *testing.T, analyzer, fixture string) {
	t.Helper()
	dir := filepath.Join("testdata", fixture)
	p, err := loader(t).loadDir(dir, "prever/internal/lint/testdata/"+fixture)
	if err != nil {
		t.Fatal(err)
	}
	if findings := Run([]*Package{p}, []*Analyzer{analyzerByName(t, analyzer)}); len(findings) != 0 {
		t.Errorf("%s out of scope: want no findings, got %v", fixture, findings)
	}
}

func TestLockHeld(t *testing.T) {
	// lockheld is not scoped: any import path triggers it.
	checkFixture(t, "lockheld", "lockheld", "prever/internal/lint/testdata/lockheld")
}

func TestCryptoRand(t *testing.T) {
	checkFixture(t, "cryptorand", "cryptorand", "prever/internal/he")
}

func TestCryptoRandOutOfScope(t *testing.T) {
	checkOutOfScope(t, "cryptorand", "cryptorand")
}

func TestCryptoRandBatchArg(t *testing.T) {
	// Loaded under a NEUTRAL path: the batch-verifier rng check is
	// program-wide, unlike the import check.
	checkFixture(t, "cryptorand", "cryptorandbatch", "prever/internal/lint/testdata/cryptorandbatch")
}

func TestConstTime(t *testing.T) {
	checkFixture(t, "consttime", "consttime", "prever/internal/commit")
}

func TestConstTimeOutOfScope(t *testing.T) {
	checkOutOfScope(t, "consttime", "consttime")
}

func TestDeferLoop(t *testing.T) {
	// deferloop is not scoped: any import path triggers it.
	checkFixture(t, "deferloop", "deferloop", "prever/internal/lint/testdata/deferloop")
}

func TestErrIgnored(t *testing.T) {
	checkFixture(t, "errignored", "errignored", "prever/internal/lint/testdata/errignored")
}

// TestBadDirectives: a directive without a reason and one naming an
// unknown analyzer are reported and suppress nothing.
func TestBadDirectives(t *testing.T) {
	p, err := loader(t).loadDir(filepath.Join("testdata", "baddirective"), "prever/internal/lint/testdata/baddirective")
	if err != nil {
		t.Fatal(err)
	}
	findings := Run([]*Package{p}, All())
	var got []string
	for _, f := range findings {
		got = append(got, fmt.Sprintf("%s:%d", f.Analyzer, f.Pos.Line))
	}
	sort.Strings(got)
	// Lines: 15 bare directive, 16 unsuppressed send, 22 unknown-analyzer
	// directive, 23 unsuppressed send.
	want := []string{"lint:15", "lint:22", "lockheld:16", "lockheld:23"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("bad-directive findings = %v, want %v", got, want)
	}
}

// TestRepoIsClean runs the full registry over every package in the module:
// the tree must stay lint-clean, with deliberate exceptions carrying
// //lint:ignore directives.
func TestRepoIsClean(t *testing.T) {
	pkgs, err := loader(t).LoadPatterns(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; the module walk looks broken", len(pkgs))
	}
	for _, f := range Run(pkgs, All()) {
		t.Errorf("%v", f)
	}
}

// TestFindingString pins the output format the Makefile and CI grep for.
func TestFindingString(t *testing.T) {
	p, err := loader(t).loadDir(filepath.Join("testdata", "errignored"), "prever/internal/lint/testdata/errignored")
	if err != nil {
		t.Fatal(err)
	}
	findings := Run([]*Package{p}, []*Analyzer{analyzerByName(t, "errignored")})
	if len(findings) == 0 {
		t.Fatal("expected findings")
	}
	s := findings[0].String()
	wantSuffix := "testdata/errignored/errignored.go:23: [errignored] call of Submit discards its error; assign and handle it (or discard explicitly with _ =)"
	if !strings.HasSuffix(s, wantSuffix) {
		t.Errorf("Finding.String() = %q, want suffix %q", s, wantSuffix)
	}
}

func TestWalOrder(t *testing.T) {
	// walorder is not scoped: any import path triggers it.
	checkFixture(t, "walorder", "walorder", "prever/internal/lint/testdata/walorder")
}

func TestLockOrder(t *testing.T) {
	// lockorder is not scoped: any import path triggers it.
	checkFixture(t, "lockorder", "lockorder", "prever/internal/lint/testdata/lockorder")
}

func TestTimerLeak(t *testing.T) {
	checkFixture(t, "timerleak", "timerleak", "prever/internal/lint/testdata/timerleak")
}

func TestAtomicMix(t *testing.T) {
	checkFixture(t, "atomicmix", "atomicmix", "prever/internal/lint/testdata/atomicmix")
}

func TestChanClose(t *testing.T) {
	checkFixture(t, "chanclose", "chanclose", "prever/internal/lint/testdata/chanclose")
}

// TestMultiIgnore: one line flagged by two analyzers at once, suppressed
// by a single comma-list directive. The unreviewed twin keeps both
// findings, pinned by analyzer and line.
func TestMultiIgnore(t *testing.T) {
	p, err := loader(t).loadDir(filepath.Join("testdata", "multiignore"), "prever/internal/lint/testdata/multiignore")
	if err != nil {
		t.Fatal(err)
	}
	findings := Run([]*Package{p}, []*Analyzer{analyzerByName(t, "lockheld"), analyzerByName(t, "chanclose")})
	var got []string
	for _, f := range findings {
		got = append(got, fmt.Sprintf("%s:%d", f.Analyzer, f.Pos.Line))
	}
	sort.Strings(got)
	want := []string{"chanclose:19", "lockheld:19"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("multiignore findings = %v, want %v", got, want)
	}
}

// TestUnreached runs the analyzer over the four-package fixture under
// testdata/unreached: user, a command, reaches lib through a call, an
// interface (on a plain and on a generic type), fmt and two
// instantiations; lib_test.go calls TestOnly;
// orphan has no importer; support carries the package directive.
func TestUnreached(t *testing.T) {
	const root = "testdata/unreached"
	pkgs, err := loader(t).LoadPatterns([]string{"internal/lint/" + root + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	abs, err := filepath.Abs(root)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool)
	for _, f := range Run(pkgs, []*Analyzer{Unreached}) {
		rel, err := filepath.Rel(abs, f.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		got[fmt.Sprintf("%s:%d", filepath.ToSlash(rel), f.Pos.Line)] = true
	}
	want := make(map[string]bool)
	for _, sub := range []string{"lib", "orphan", "support", "user"} {
		for pos := range wantMarkers(t, filepath.Join(root, sub), "unreached") {
			want[sub+"/"+pos] = true
		}
	}
	for pos := range want {
		if !got[pos] {
			t.Errorf("expected unreached finding at %s, got none", pos)
		}
	}
	for pos := range got {
		if !want[pos] {
			t.Errorf("unexpected unreached finding at %s", pos)
		}
	}

	// Without a command the program is not whole, and nothing is judged.
	lib, err := loader(t).LoadPatterns([]string{"internal/lint/" + root + "/lib"})
	if err != nil {
		t.Fatal(err)
	}
	if fs := Run(lib, []*Analyzer{Unreached}); len(fs) != 0 {
		t.Errorf("lib alone: want no findings, got %v", fs)
	}
}
