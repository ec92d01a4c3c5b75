package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestWalkerFacts runs a trivial rule — add("k") sets fact k, del("k")
// clears it — over small bodies and checks the facts at the end of the
// body and whether control can reach that end.
func TestWalkerFacts(t *testing.T) {
	cases := []struct {
		name       string
		body       string
		want       string // sorted fact keys, space-separated
		terminated bool
	}{
		{"sequence", `add("a"); add("b"); del("a")`, "b", false},
		{"if without else", `add("a"); if c { del("a"); add("b") }`, "a b", false},
		{"if/else, then returns", `add("a"); if c { del("a"); return } else { add("b") }`, "a b", false},
		{"if/else, else returns", `add("a"); if c { del("a") } else { add("b"); return }`, "", false},
		{"if/else, both return", `add("a"); if c { return } else { panic(0) }; add("b")`, "a", true},
		{"loop body unlocks", `add("a"); for i := 0; i < n; i++ { del("a") }`, "a", false},
		{"range body adds", `for range xs { add("b") }`, "b", false},
		{"switch without default", `add("a"); switch x { case 1: del("a"); case 2: del("a") }`, "a", false},
		{"switch clause returns", `add("a"); switch x { case 1: del("a"); return; case 2: add("b") }`, "a b", false},
		{"select runs one clause", `add("a"); select { case <-ch: del("a"); default: del("a") }`, "", false},
		{"select, every clause returns", `add("a"); select { case <-ch: return; default: return }; add("b")`, "a", true},
		{"labeled break", `add("a")
outer:
	for {
		select {
		case <-ch:
			del("a")
			break outer
		}
		add("b")
	}`, "a", false},
		{"switch clause breaks", `add("a"); switch x { case 1: add("b"); break }`, "a b", false},
		{"select clause breaks", `add("a"); select { case <-ch: add("b"); break }`, "a b", false},
		{"loop body breaks", `add("a"); for { del("a"); if c { add("b"); break } }`, "a b", false},
		{"break in a clause's loop leaves the loop", `add("a"); switch x { case 1: for { add("b"); break }; return }`, "a", false},
		{"go and func literal are other frames", `go func() { add("g") }(); f := func() { add("f") }; f()`, "", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			file, err := parser.ParseFile(fset, "body.go", "package p\nfunc f() {\n"+tc.body+"\n}\n", 0)
			if err != nil {
				t.Fatal(err)
			}
			w := &walker[bool]{
				stmt: func(st ast.Stmt, f facts[bool]) bool {
					es, ok := st.(*ast.ExprStmt)
					if !ok {
						return false
					}
					call, ok := es.X.(*ast.CallExpr)
					if !ok || len(call.Args) != 1 {
						return false
					}
					id, _ := call.Fun.(*ast.Ident)
					lit, _ := call.Args[0].(*ast.BasicLit)
					if id == nil || lit == nil {
						return false
					}
					key, _ := strconv.Unquote(lit.Value)
					switch id.Name {
					case "add":
						f[key] = true
					case "del":
						delete(f, key)
					default:
						return false
					}
					return true
				},
				node: func(ast.Node, facts[bool]) {},
			}
			f := facts[bool]{}
			term := w.stmts(file.Decls[0].(*ast.FuncDecl).Body.List, f)
			var keys []string
			for k := range f {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if got := strings.Join(keys, " "); got != tc.want || term != tc.terminated {
				t.Errorf("facts %q terminated %v, want %q terminated %v", got, term, tc.want, tc.terminated)
			}
		})
	}
}
