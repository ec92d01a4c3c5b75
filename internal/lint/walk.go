package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// facts is what a path-sensitive rule knows at one point of a function
// frame, keyed by a name the rule chooses: a held mutex's printed
// expression, a pending journal event's position.
type facts[V any] map[string]V

func (f facts[V]) clone() facts[V] {
	c := make(facts[V], len(f))
	for k, v := range f {
		c[k] = v
	}
	return c
}

// union adds o's keys that f lacks; a key f already has keeps its value.
func (f facts[V]) union(o facts[V]) {
	for k, v := range o {
		if _, ok := f[k]; !ok {
			f[k] = v
		}
	}
}

// replace overwrites f's contents with src's.
func (f facts[V]) replace(src facts[V]) {
	clear(f)
	for k, v := range src {
		f[k] = v
	}
}

// walker carries one analyzer's rule through a function frame, following
// Go's control flow:
//
//   - statements run in sequence;
//   - each branch of an if gets a copy of the facts, and the branches
//     that fall through merge by union;
//   - a for or range body runs zero or more times;
//   - a switch or type switch may match no clause;
//   - a select runs exactly one clause, so its merge starts from nothing
//     and it ends the statement list when no clause falls through;
//   - an unlabeled break leaves the innermost switch, select or loop,
//     and its facts merge into that statement's exit with the paths that
//     fall through;
//   - return, break, continue, goto and panic end the statement list;
//   - go statements and function literals are frames of their own
//     (forEachFunc walks each literal from an empty fact set).
//
// The walker has no rule of its own; a defer, say, does nothing unless
// the analyzer's stmt hook gives it a meaning.
type walker[V any] struct {
	// stmt applies the analyzer's own statements to f and reports
	// whether it consumed st; an unconsumed statement is walked as usual.
	stmt func(st ast.Stmt, f facts[V]) bool
	// node sees each node of every expression the frame evaluates while
	// f is non-empty, function literals excepted.
	node func(n ast.Node, f facts[V])
	// breaks collects the facts at each unlabeled break out of the
	// innermost switch, select or loop being walked.
	breaks *[]facts[V]
}

// frame walks one function body from an empty fact set.
func (w *walker[V]) frame(body *ast.BlockStmt) {
	w.stmts(body.List, facts[V]{})
}

// stmts walks a statement list in order, updating f, and reports whether
// control cannot fall off its end.
func (w *walker[V]) stmts(list []ast.Stmt, f facts[V]) (terminated bool) {
	for _, st := range list {
		if w.walk(st, f) {
			return true
		}
	}
	return false
}

// walk processes one statement and reports whether it unconditionally
// leaves the enclosing statement list.
func (w *walker[V]) walk(st ast.Stmt, f facts[V]) bool {
	if w.stmt(st, f) {
		return false
	}
	switch st := st.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
		w.eval(f, st.X)
	case *ast.SendStmt:
		w.eval(f, st.Chan, st.Value)
	case *ast.AssignStmt:
		w.eval(f, st.Rhs...)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.eval(f, vs.Values...)
				}
			}
		}
	case *ast.ReturnStmt:
		w.eval(f, st.Results...)
		return true
	case *ast.BranchStmt:
		if st.Tok == token.BREAK && st.Label == nil && w.breaks != nil {
			*w.breaks = append(*w.breaks, f.clone())
		}
		return true
	case *ast.BlockStmt:
		return w.stmts(st.List, f)
	case *ast.LabeledStmt:
		return w.walk(st.Stmt, f)
	case *ast.IfStmt:
		if st.Init != nil {
			w.walk(st.Init, f)
		}
		w.eval(f, st.Cond)
		then := f.clone()
		thenTerm := w.stmts(st.Body.List, then)
		if st.Else == nil {
			if !thenTerm {
				f.union(then) // the branch ran, or it did not
			}
			break
		}
		var arms []facts[V]
		if !thenTerm {
			arms = append(arms, then)
		}
		if els := f.clone(); !w.walk(st.Else, els) {
			arms = append(arms, els)
		}
		return merge(f, arms)
	case *ast.ForStmt:
		if st.Init != nil {
			w.walk(st.Init, f)
		}
		w.eval(f, st.Cond)
		body := f.clone()
		exits := w.breakable(func() { w.stmts(st.Body.List, body) })
		if st.Post != nil {
			w.walk(st.Post, body)
		}
		for _, a := range append([]facts[V]{body}, exits...) {
			f.union(a)
		}
	case *ast.RangeStmt:
		w.eval(f, st.X)
		body := f.clone()
		exits := w.breakable(func() { w.stmts(st.Body.List, body) })
		for _, a := range append([]facts[V]{body}, exits...) {
			f.union(a)
		}
	case *ast.SwitchStmt:
		if st.Init != nil {
			w.walk(st.Init, f)
		}
		w.eval(f, st.Tag)
		w.cases(st.Body, f)
	case *ast.TypeSwitchStmt:
		w.cases(st.Body, f)
	case *ast.SelectStmt:
		var arms []facts[V]
		breaks := w.breakable(func() {
			for _, c := range st.Body.List {
				cc := c.(*ast.CommClause)
				arm := f.clone()
				if cc.Comm != nil {
					w.walk(cc.Comm, arm)
				}
				if !w.stmts(cc.Body, arm) {
					arms = append(arms, arm)
				}
			}
		})
		return merge(f, append(arms, breaks...))
	}
	return false
}

// cases walks a switch or type-switch body: each clause runs on a copy
// of f, and no clause may match at all.
func (w *walker[V]) cases(body *ast.BlockStmt, f facts[V]) {
	arms := []facts[V]{f.clone()}
	breaks := w.breakable(func() {
		for _, c := range body.List {
			arm := f.clone()
			if !w.stmts(c.(*ast.CaseClause).Body, arm) {
				arms = append(arms, arm)
			}
		}
	})
	merge(f, append(arms, breaks...))
}

// breakable runs walk, which walks the body of a switch, select or loop,
// and returns the facts at each unlabeled break out of that statement.
func (w *walker[V]) breakable(walk func()) []facts[V] {
	outer := w.breaks
	var breaks []facts[V]
	w.breaks = &breaks
	walk()
	w.breaks = outer
	return breaks
}

// eval feeds every node of the expressions to the node hook. Function
// literals are skipped: their bodies run on some later frame. With no
// facts there is nothing to report against.
func (w *walker[V]) eval(f facts[V], es ...ast.Expr) {
	if len(f) == 0 {
		return
	}
	for _, e := range es {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			switch n.(type) {
			case nil:
			case *ast.FuncLit:
				return false
			default:
				w.node(n, f)
			}
			return true
		})
	}
}

// merge replaces f with the union of the arms that fall through, earlier
// arms' values first, and reports whether there were none — every path
// left the statement list.
func merge[V any](f facts[V], arms []facts[V]) (terminated bool) {
	if len(arms) == 0 {
		return true
	}
	for _, a := range arms[1:] {
		arms[0].union(a)
	}
	f.replace(arms[0])
	return false
}

// forEachFunc invokes fn on every function body in the package: top-level
// declarations and each function literal (a literal runs on its own
// goroutine's stack and starts with no locks held by this frame).
func forEachFunc(p *Package, fn func(*ast.BlockStmt)) {
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn(fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					fn(fl.Body)
				}
				return true
			})
		}
	}
}

// callSummaries closes per-function facts over the call graph: every
// function declared in pkgs reaches the facts its own frame produces and
// everything its callees reach, to a fixed point. frame reports, for one
// declared function body, the facts it produces directly and the callees
// whose summaries it inherits.
func callSummaries(pkgs []*Package, frame func(p *Package, body *ast.BlockStmt) (own []string, callees []*types.Func)) map[*types.Func]map[string]bool {
	type node struct {
		fn      *types.Func
		callees []*types.Func
	}
	var nodes []node
	sum := map[*types.Func]map[string]bool{}
	add := func(fn *types.Func, fact string) bool {
		if sum[fn][fact] {
			return false
		}
		if sum[fn] == nil {
			sum[fn] = map[string]bool{}
		}
		sum[fn][fact] = true
		return true
	}
	for _, p := range pkgs {
		for _, file := range p.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				own, callees := frame(p, fd.Body)
				for _, fact := range own {
					add(fn, fact)
				}
				nodes = append(nodes, node{fn, callees})
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			for _, callee := range n.callees {
				for fact := range sum[callee] {
					if add(n.fn, fact) {
						changed = true
					}
				}
			}
		}
	}
	return sum
}

// inspectSameFrame visits every call expression in body that executes on
// this function's own frame: function literals (goroutines, timer
// callbacks, deferred closures) are not descended into.
func inspectSameFrame(body *ast.BlockStmt, fn func(*ast.CallExpr)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			fn(call)
		}
		return true
	})
}
