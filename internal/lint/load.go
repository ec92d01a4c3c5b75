package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader parses and type-checks packages of the enclosing module using
// only the standard library: module-local imports are resolved by loading
// their directories recursively; standard-library imports go through the
// source importer (which needs no pre-compiled export data).
type Loader struct {
	Fset   *token.FileSet
	root   string // module root directory (holds go.mod)
	module string // module path, e.g. "prever"
	std    types.Importer
	pkgs   map[string]*Package // memoized by import path
	active map[string]bool     // cycle guard
}

// FindModuleRoot walks up from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// NewLoader builds a loader rooted at the module directory.
func NewLoader(root string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	module := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			module = strings.TrimSpace(rest)
			break
		}
	}
	if module == "" {
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:   fset,
		root:   root,
		module: module,
		std:    importer.ForCompiler(fset, "source", nil),
		pkgs:   make(map[string]*Package),
		active: make(map[string]bool),
	}, nil
}

// Import implements types.Importer over both module-local and stdlib paths.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		p, err := l.loadPath(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// loadPath loads the module package with the given import path.
func (l *Loader) loadPath(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")
	dir := filepath.Join(l.root, filepath.FromSlash(rel))
	p, err := l.loadDir(dir, path)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// LoadDirAs parses and type-checks the single package in dir under an
// explicit import path. Tests use it to load analyzer fixtures from
// testdata under the import path that triggers the analyzer's scoping.
func (l *Loader) LoadDirAs(dir, importPath string) (*Package, error) {
	return l.loadDir(dir, importPath)
}

func (l *Loader) loadDir(dir, importPath string) (*Package, error) {
	if l.active[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.active[importPath] = true
	defer delete(l.active, importPath)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	name := ""
	for _, e := range entries {
		fn := e.Name()
		if e.IsDir() || !strings.HasSuffix(fn, ".go") || strings.HasSuffix(fn, "_test.go") {
			continue
		}
		// Type-check the files a default build compiles: a file behind a
		// build constraint (//go:build race, a _linux suffix) is left out
		// when the constraint does not hold, or its declarations would
		// clash with the file the build takes instead.
		if ok, err := build.Default.MatchFile(dir, fn); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, fn), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if name == "" {
			name = f.Name.Name
		} else if f.Name.Name != name {
			return nil, fmt.Errorf("lint: %s contains packages %s and %s", dir, name, f.Name.Name)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	return &Package{
		Path:  importPath,
		Name:  name,
		Fset:  l.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// LoadPatterns resolves command-line patterns into loaded packages.
// Supported forms: "./..." or "dir/..." (every package under the tree,
// skipping testdata and hidden directories) and plain directory paths.
func (l *Loader) LoadPatterns(patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var pkgs []*Package
	for _, pat := range patterns {
		var dirs []string
		var err error
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			base := filepath.Join(l.root, filepath.FromSlash(strings.TrimSuffix(rest, "/")))
			dirs, err = l.packageDirs(base)
			if err != nil {
				return nil, err
			}
		} else {
			dirs = []string{filepath.Join(l.root, filepath.FromSlash(pat))}
		}
		for _, dir := range dirs {
			path, err := l.importPathFor(dir)
			if err != nil {
				return nil, err
			}
			if seen[path] {
				continue
			}
			seen[path] = true
			p, err := l.loadPath(path)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, p)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// packageDirs returns every directory under base holding non-test Go
// files, skipping testdata and hidden/underscore directories.
func (l *Loader) packageDirs(base string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			n := d.Name()
			if path != base && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	return dirs, err
}

func (l *Loader) importPathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.root, abs)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.module, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module root %s", dir, l.root)
	}
	return l.module + "/" + filepath.ToSlash(rel), nil
}
