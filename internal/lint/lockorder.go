package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// LockOrder builds a program-wide mutex-acquisition graph and reports
// cycles — the static form of the deadlock the race detector only finds
// when the schedule cooperates. Nodes are lock *classes* (the declared
// home of the mutex: "paxos.Replica.mu", "mempool.Pool.mu", a
// package-level "netsim.mu"), because every instance of a struct field is
// the same rung of the hierarchy. An edge A→B is recorded when any
// function acquires B while holding A, either directly or by calling —
// with A held — a helper whose transitive summary acquires B. Two
// functions that take {A,B} in opposite orders therefore close a cycle
// and both acquisition sites are reported; so is acquiring a second
// instance of one class with no global order (the classic two-account
// transfer deadlock).
//
// The walk is the shared path-sensitive walker (walk.go; a deferred
// Unlock holds to frame end), and the call graph follows only direct
// calls to functions with bodies in the loaded program — function
// literals run on their own frames and are walked separately, so
// goroutine and timer callbacks never inherit the spawner's held set.
var LockOrder = &Analyzer{
	Name:       "lockorder",
	Doc:        "mutex classes acquired in conflicting orders across the program (deadlock cycle)",
	RunProgram: runLockOrder,
}

// lockAt is one held lock: its class and the acquisition position.
type lockAt struct {
	class string
	pos   token.Pos
}

// lockEdge records the earliest-seen acquisition site for a from→to pair.
type lockEdge struct {
	pos   token.Position
	under token.Position // where the from-lock was taken
}

type lockGraph struct {
	edges map[string]map[string]lockEdge
}

func (g *lockGraph) add(from, to string, pos, under token.Position) {
	if g.edges[from] == nil {
		g.edges[from] = make(map[string]lockEdge)
	}
	e := lockEdge{pos: pos, under: under}
	if cur, ok := g.edges[from][to]; !ok || posLess(e, cur) {
		g.edges[from][to] = e
	}
}

// posLess orders edges by position so the recorded example site is
// deterministic regardless of map iteration order during the walk.
func posLess(a, b lockEdge) bool {
	if a.pos.Filename != b.pos.Filename {
		return a.pos.Filename < b.pos.Filename
	}
	if a.pos.Line != b.pos.Line {
		return a.pos.Line < b.pos.Line
	}
	if a.under.Filename != b.under.Filename {
		return a.under.Filename < b.under.Filename
	}
	return a.under.Line < b.under.Line
}

func runLockOrder(pkgs []*Package) []Finding {
	trans := callSummaries(pkgs, func(p *Package, body *ast.BlockStmt) (acq []string, callees []*types.Func) {
		// A Lock lexically preceded by an Unlock of the same class in the
		// same frame is the unlock-relock handoff (release the caller's
		// lock around a blocking call, retake it): the caller is not
		// holding the class at that acquisition, so it stays out of the
		// summary.
		released := map[string]bool{}
		inspectSameFrame(body, func(call *ast.CallExpr) {
			if cls, method := mutexOp(p, call); cls != "" {
				switch method {
				case "Lock", "RLock":
					if !released[cls] {
						acq = append(acq, cls)
					}
				case "Unlock", "RUnlock":
					released[cls] = true
				}
				return
			}
			if callee := calleeFunc(p, call); callee != nil {
				callees = append(callees, callee)
			}
		})
		return acq, callees
	})

	// Edge extraction: path-sensitive walk of every function frame.
	g := &lockGraph{edges: map[string]map[string]lockEdge{}}
	for _, p := range pkgs {
		forEachFunc(p, lockOrderRule(p, trans, g).frame)
	}

	// Cycle detection: strongly connected components over the class graph.
	comp := sccOf(g)
	var out []Finding
	for from, tos := range g.edges {
		for to, e := range tos {
			if from != to && (comp[from] != comp[to]) {
				continue
			}
			var msg string
			if from == to {
				msg = fmt.Sprintf(
					"acquiring %s while an instance of it is already held (locked at line %d); same-class locks need a global acquisition order or this deadlocks",
					to, e.under.Line)
			} else if rev, ok := g.edges[to][from]; ok {
				msg = fmt.Sprintf(
					"acquiring %s while holding %s (locked at line %d) conflicts with the reverse order at %s:%d; lock-order cycle can deadlock",
					to, from, e.under.Line, filepath.Base(rev.pos.Filename), rev.pos.Line)
			} else {
				msg = fmt.Sprintf(
					"acquiring %s while holding %s (locked at line %d) closes a lock-order cycle through {%s}; fix the hierarchy",
					to, from, e.under.Line, strings.Join(compMembers(comp, comp[from]), ", "))
			}
			out = append(out, Finding{Pos: e.pos, Analyzer: "lockorder", Message: msg})
		}
	}
	return out
}

// mutexOp recognizes m.Lock/RLock/Unlock/RUnlock calls resolved to the
// sync package (so a project type's own Lock method does not count) and
// returns the lock class of the receiver expression, or "" otherwise.
func mutexOp(p *Package, call *ast.CallExpr) (class, method string) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	return lockClass(p, sel.X), sel.Sel.Name
}

// lockClass names the declared home of a mutex: "pkg.Type.field" for a
// struct field, "pkg.var" for a package-level var, "pkg.Type.(embedded)"
// for a mutex embedded in Type. Function-local mutexes return "" — they
// cannot participate in cross-function cycles.
func lockClass(p *Package, e ast.Expr) string {
	e = unparen(e)
	t := p.Info.TypeOf(e)
	if t == nil {
		return ""
	}
	if n := namedOf(t); n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() != "sync" {
		// Embedded mutex: e is the enclosing struct.
		return n.Obj().Pkg().Name() + "." + n.Obj().Name() + ".(embedded)"
	}
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if n := namedOf(p.Info.TypeOf(e.X)); n != nil && n.Obj().Pkg() != nil {
			return n.Obj().Pkg().Name() + "." + n.Obj().Name() + "." + e.Sel.Name
		}
	case *ast.Ident:
		if obj := p.Info.Uses[e]; obj != nil && obj.Pkg() != nil &&
			obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Name() + "." + e.Name
		}
	}
	return ""
}

// lockOrderRule tracks the held locks of one frame, keyed by the printed
// mutex expression ("r.mu") so that unlocks stay precise when two
// instances of one class are held, and records an acquisition-order edge
// from each held lock to every class acquired under it: directly, or
// through a callee's transitive summary.
func lockOrderRule(p *Package, trans map[*types.Func]map[string]bool, g *lockGraph) *walker[lockAt] {
	under := func(h lockAt, cls string, pos token.Pos) {
		g.add(h.class, cls, p.Fset.Position(pos), p.Fset.Position(h.pos))
	}
	acquire := func(call *ast.CallExpr, cls string, held facts[lockAt]) {
		expr := types.ExprString(unparen(call.Fun).(*ast.SelectorExpr).X)
		// Relocking the very expression already held is a
		// self-deadlock: the same edge as any other held lock.
		for _, h := range held {
			under(h, cls, call.Pos())
		}
		held[expr] = lockAt{class: cls, pos: call.Pos()}
	}
	return &walker[lockAt]{
		stmt: func(st ast.Stmt, held facts[lockAt]) bool {
			switch st := st.(type) {
			case *ast.ExprStmt:
				call, ok := st.X.(*ast.CallExpr)
				if !ok {
					return false
				}
				switch cls, method := mutexOp(p, call); method {
				case "Lock", "RLock":
					if cls != "" {
						acquire(call, cls, held)
					}
				case "Unlock", "RUnlock":
					delete(held, types.ExprString(unparen(call.Fun).(*ast.SelectorExpr).X))
				default:
					return false
				}
				return true
			case *ast.DeferStmt:
				// defer m.Unlock() keeps the lock to frame end (correct
				// for ordering: later acquisitions happen under it).
				// Other deferred calls run at return with an unknowable
				// held set; skipping them only drops edges, never invents
				// them.
				if cls, method := mutexOp(p, st.Call); cls != "" && (method == "Lock" || method == "RLock") {
					acquire(st.Call, cls, held)
				}
				return true
			}
			return false
		},
		node: func(n ast.Node, held facts[lockAt]) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			if callee := calleeFunc(p, call); callee != nil {
				for cls := range trans[callee] {
					for _, h := range held {
						under(h, cls, call.Pos())
					}
				}
			}
		},
	}
}

// sccOf assigns each node a strongly-connected-component id (iterative
// Tarjan, deterministic over sorted node order).
func sccOf(g *lockGraph) map[string]int {
	nodes := map[string]bool{}
	for from, tos := range g.edges {
		nodes[from] = true
		for to := range tos {
			nodes[to] = true
		}
	}
	order := make([]string, 0, len(nodes))
	for n := range nodes {
		order = append(order, n)
	}
	sort.Strings(order)

	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	comp := map[string]int{}
	var stack []string
	next, ncomp := 0, 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		var succs []string
		for to := range g.edges[v] {
			succs = append(succs, to)
		}
		sort.Strings(succs)
		for _, to := range succs {
			if _, seen := index[to]; !seen {
				strongconnect(to)
				if low[to] < low[v] {
					low[v] = low[to]
				}
			} else if onStack[to] && index[to] < low[v] {
				low[v] = index[to]
			}
		}
		if low[v] == index[v] {
			for {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[top] = false
				comp[top] = ncomp
				if top == v {
					break
				}
			}
			ncomp++
		}
	}
	for _, v := range order {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return comp
}

func compMembers(comp map[string]int, id int) []string {
	var out []string
	for n, c := range comp {
		if c == id {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}
