package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Unreached reports package-level declarations under prever/internal/
// that no non-test file of the loaded program uses: code that only its
// own tests call, which the engines carry without reaching. The loader
// reads no _test.go file, so every use it sees is a non-test use.
//
// A use inside the declaration itself does not count (a self-recursive
// function is still unreached), nor does a type's mention in its own
// methods; a method of an unreached type goes with the type and is not
// reported on its own. A generic function counts as used when an instantiation is,
// through Origin. A method also counts as reached when its receiver type
// implements (types.Implements) an interface the program names that
// declares it, or when the standard library finds it by name (String,
// Error, Format, Unwrap, the JSON, text and binary marshalers). A package no
// non-test package imports is reported once, at its package clause, and
// its declarations are skipped; a test-support package silences that
// finding like any other, with a "//lint:ignore unreached <reason>"
// directive above the clause.
//
// The verdict needs the whole program, so the analyzer judges only a
// package set holding at least one command (package main): run it over
// ./..., which also loads benchmark/, cmd/ and examples/.
var Unreached = &Analyzer{
	Name:       "unreached",
	Doc:        "package-level declaration under internal/ that no non-test code uses",
	RunProgram: runUnreached,
}

// unreachedScope is the import-path prefix whose declarations are judged.
const unreachedScope = "prever/internal/"

// dynamicMethods are found by the standard library through a type
// assertion on a value it was handed (fmt, errors, encoding/json,
// encoding), so no interface the program names need declare them.
var dynamicMethods = map[string]bool{
	"String": true, "GoString": true, "Error": true, "Format": true,
	"Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true, "AppendText": true,
	"MarshalBinary": true, "UnmarshalBinary": true, "AppendBinary": true,
}

func runUnreached(pkgs []*Package) []Finding {
	hasMain := false
	imported := make(map[string]bool)
	for _, p := range pkgs {
		hasMain = hasMain || p.Name == "main"
		for _, imp := range p.Types.Imports() {
			imported[imp.Path()] = true
		}
	}
	if !hasMain {
		return nil
	}
	used := usedObjects(pkgs)
	ifaces := namedInterfaces(pkgs)

	var out []Finding
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, unreachedScope) || p.Name == "main" {
			continue
		}
		if !imported[p.Path] {
			out = append(out, p.finding(docFile(p).Name.Pos(), "unreached",
				"package %s is imported by no non-test package; delete it (or mark a test-support package with //lint:ignore unreached <reason>)", p.Path))
			continue
		}
		report := func(obj types.Object, what string) {
			out = append(out, p.finding(obj.Pos(), "unreached",
				"%s has no non-test use; delete it (or keep it with //lint:ignore unreached <reason>)", what))
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, _ := p.Info.Defs[d.Name].(*types.Func)
					if fn == nil || fn.Name() == "init" || fn.Name() == "_" || used[fn] {
						continue
					}
					recv := recvTypeName(fn)
					if recv == nil {
						report(fn, "func "+fn.Name())
					} else if used[recv] && !methodReached(recv, fn.Name(), ifaces) {
						report(fn, "method "+recv.Name()+"."+fn.Name())
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						for _, obj := range specObjects(p, spec) {
							if obj.Name() != "_" && !used[obj] {
								report(obj, declKind(obj)+" "+obj.Name())
							}
						}
					}
				}
			}
		}
	}
	return out
}

// usedObjects returns every object some declaration of the program uses,
// outside that declaration's own body. Generic instantiations map to
// their origin.
func usedObjects(pkgs []*Package) map[types.Object]bool {
	used := make(map[types.Object]bool)
	mark := func(p *Package, n ast.Node, own map[types.Object]bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if obj := origin(p.Info.Uses[id]); obj != nil && !own[obj] {
				used[obj] = true
			}
			return true
		})
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					own := make(map[types.Object]bool)
					if fn, ok := p.Info.Defs[d.Name].(*types.Func); ok {
						own[fn] = true
						if recv := recvTypeName(fn); recv != nil {
							own[recv] = true
						}
					}
					mark(p, d, own)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						own := make(map[types.Object]bool)
						for _, obj := range specObjects(p, spec) {
							own[obj] = true
						}
						mark(p, spec, own)
					}
				}
			}
		}
	}
	return used
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// specObjects returns the package-level objects one spec declares.
func specObjects(p *Package, spec ast.Spec) []types.Object {
	var objs []types.Object
	switch s := spec.(type) {
	case *ast.TypeSpec:
		if obj := p.Info.Defs[s.Name]; obj != nil {
			objs = append(objs, obj)
		}
	case *ast.ValueSpec:
		for _, id := range s.Names {
			if obj := p.Info.Defs[id]; obj != nil {
				objs = append(objs, obj)
			}
		}
	}
	return objs
}

func declKind(obj types.Object) string {
	switch obj.(type) {
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	}
	return "var"
}

// recvTypeName returns the named type a method is declared on, or nil
// for a plain function.
func recvTypeName(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin().Obj()
	}
	return nil
}

// methodReached reports whether method name of recv is called through an
// interface: the standard library's by-name lookups, or any interface
// the program names that declares it and that recv or *recv implements.
func methodReached(recv *types.TypeName, name string, ifaces map[string][]*types.Interface) bool {
	if dynamicMethods[name] {
		return true
	}
	t := recv.Type()
	if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
		return len(ifaces[name]) > 0 // generic receiver: a name match is the best a static check can do
	}
	for _, it := range ifaces[name] {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// namedInterfaces indexes, by method name, every interface the program
// names: an interface type an expression, a declaration or a signature
// of the loaded program mentions (a parameter of a standard-library
// function included, which is how sort.Sort or http.Serve reach their
// arguments' methods). Generic interfaces are left out: Implements needs
// them instantiated.
func namedInterfaces(pkgs []*Package) map[string][]*types.Interface {
	seen := make(map[types.Type]bool)
	byName := make(map[string][]*types.Interface)
	var visit func(t types.Type)
	visit = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			if t.TypeParams().Len() == 0 || t.TypeArgs().Len() > 0 {
				visit(t.Underlying())
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				byName[t.Method(i).Name()] = append(byName[t.Method(i).Name()], t)
			}
		case *types.Pointer:
			visit(t.Elem())
		case *types.Slice:
			visit(t.Elem())
		case *types.Array:
			visit(t.Elem())
		case *types.Map:
			visit(t.Key())
			visit(t.Elem())
		case *types.Chan:
			visit(t.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tup.Len(); i++ {
					visit(tup.At(i).Type())
				}
			}
		}
	}
	for _, p := range pkgs {
		for _, tv := range p.Info.Types {
			visit(tv.Type)
		}
		for _, obj := range p.Info.Defs {
			if obj != nil {
				visit(obj.Type())
			}
		}
		for _, obj := range p.Info.Uses {
			visit(obj.Type())
		}
	}
	return byName
}

// docFile returns the file holding the package clause a package-level
// finding goes on: the one with the package comment, else the first.
func docFile(p *Package) *ast.File {
	for _, f := range p.Files {
		if f.Doc != nil {
			return f
		}
	}
	return p.Files[0]
}
