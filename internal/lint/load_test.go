package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadPatternsMultiPackage: a "..." pattern under testdata loads both
// sibling packages, and the importing package resolves its sibling's
// types through the module-local importer.
func TestLoadPatternsMultiPackage(t *testing.T) {
	pkgs, err := loader(t).LoadPatterns([]string{"internal/lint/testdata/multi/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}
	wantPaths := []string{
		"prever/internal/lint/testdata/multi/a",
		"prever/internal/lint/testdata/multi/b",
	}
	for i, p := range pkgs {
		if p.Path != wantPaths[i] {
			t.Errorf("pkgs[%d].Path = %q, want %q", i, p.Path, wantPaths[i])
		}
	}
	b := pkgs[1]
	var importsA bool
	for _, imp := range b.Types.Imports() {
		if imp.Path() == wantPaths[0] {
			importsA = true
			if reg := imp.Scope().Lookup("Registry"); reg == nil {
				t.Error("package a's Registry not visible through b's import")
			}
		}
	}
	if !importsA {
		t.Errorf("package b does not record its import of a: %v", b.Types.Imports())
	}
}

// TestLoadPatternsDeduplicates: overlapping patterns yield each package
// once.
func TestLoadPatternsDeduplicates(t *testing.T) {
	pkgs, err := loader(t).LoadPatterns([]string{
		"internal/lint/testdata/multi/...",
		"internal/lint/testdata/multi/a",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2 (deduplicated)", len(pkgs))
	}
}

// TestLoadImportCycle: mutually importing packages are diagnosed instead
// of recursing forever.
func TestLoadImportCycle(t *testing.T) {
	_, err := loader(t).loadDir(filepath.Join("testdata", "cycle", "a"), "prever/internal/lint/testdata/cycle/a")
	if err == nil {
		t.Fatal("loading a mutually importing package pair succeeded, want cycle error")
	}
	if !strings.Contains(err.Error(), "cycle") {
		t.Errorf("error %q does not mention the import cycle", err)
	}
}
