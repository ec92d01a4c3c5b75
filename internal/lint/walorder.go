package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// WalOrder enforces the durable-before-send rule from DESIGN §4e: a
// consensus replica must not speak on the network about a state
// transition whose journal append it has not confirmed reached disk.
// The shape it hunts is
//
//	_ = r.journalLocked(rec)   // append+fsync outcome thrown away
//	...
//	r.broadcast(msgVote, v)    // peers now count a vote that may not
//	                           // survive this replica's crash
//
// The check is intraprocedural with a conservative call graph over
// package-local helpers: a function that transitively reaches
// (*wal.Log).Append/AppendSync/Snapshot is journal-like, one that
// transitively reaches (*netsim.Network).Send/Broadcast is send-like.
// An event is a call to a journal-like function that returns its outcome
// (at least one result) with every result discarded — a bare call
// statement or an all-blank assignment; a checked outcome
// (`if !r.journalLocked(...) { return }`) never triggers. Any send-like
// call on a path after an event is reported. Goroutines and function
// literals are separate frames and start event-free.
var WalOrder = &Analyzer{
	Name: "walorder",
	Doc:  "network send reachable after a journal append whose fsync outcome was discarded",
	Run: func(p *Package) []Finding {
		var out []Finding
		forEachFunc(p, walOrderRule(p, &out).frame)
		return out
	},
}

const (
	walPkgPath = "prever/internal/wal"
	netPkgPath = "prever/internal/netsim"
)

var (
	walAppendFuncs = map[string]bool{"Append": true, "AppendSync": true, "Snapshot": true}
	netSendFuncs   = map[string]bool{"Send": true, "Broadcast": true}
)

// Summary facts: a function that transitively reaches a WAL append is
// journal-like, one that reaches a network send is send-like.
const (
	factJournal = "journal"
	factSend    = "send"
)

// walOrderRule tracks the pending discarded-journal events of one frame,
// keyed by position, and reports send-like calls evaluated after them.
// An event on any path keeps the send reachable.
func walOrderRule(p *Package, out *[]Finding) *walker[token.Pos] {
	// Summaries follow package-local calls only. Function literals are
	// excluded: they run on their own frame (a goroutine or timer
	// callback), so their sends are not sequenced after the enclosing
	// function's journal events.
	sum := callSummaries([]*Package{p}, func(p *Package, body *ast.BlockStmt) (own []string, callees []*types.Func) {
		inspectSameFrame(body, func(call *ast.CallExpr) {
			callee := calleeFunc(p, call)
			if callee == nil || callee.Pkg() == nil {
				return
			}
			switch callee.Pkg().Path() {
			case walPkgPath:
				if walAppendFuncs[callee.Name()] {
					own = append(own, factJournal)
				}
			case netPkgPath:
				if netSendFuncs[callee.Name()] {
					own = append(own, factSend)
				}
			case p.Path:
				callees = append(callees, callee)
			}
		})
		return own, callees
	})
	// journalCall: a journal-like call that returns its outcome, so
	// discarding it means discarding a durability signal.
	journalCall := func(call *ast.CallExpr) bool {
		fn := calleeFunc(p, call)
		if fn == nil || fn.Pkg() == nil {
			return false
		}
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Results().Len() == 0 {
			return false
		}
		if fn.Pkg().Path() == walPkgPath {
			return walAppendFuncs[fn.Name()]
		}
		return sum[fn][factJournal]
	}
	sendCall := func(call *ast.CallExpr) bool {
		fn := calleeFunc(p, call)
		if fn == nil || fn.Pkg() == nil {
			return false
		}
		if fn.Pkg().Path() == netPkgPath {
			return netSendFuncs[fn.Name()]
		}
		return sum[fn][factSend]
	}
	var w *walker[token.Pos]
	w = &walker[token.Pos]{
		stmt: func(st ast.Stmt, ev facts[token.Pos]) bool {
			// An event discards every result of a journal-like call: a
			// bare call statement or an assignment whose targets are all
			// blank.
			var call *ast.CallExpr
			switch st := st.(type) {
			case *ast.DeferStmt:
				// A deferred send runs at return, after any event
				// recorded so far on this path; flag it against the
				// current set.
				w.eval(ev, st.Call)
				return true
			case *ast.ExprStmt:
				call, _ = st.X.(*ast.CallExpr)
			case *ast.AssignStmt:
				if len(st.Rhs) != 1 {
					return false
				}
				for _, lhs := range st.Lhs {
					if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
						return false
					}
				}
				call, _ = st.Rhs[0].(*ast.CallExpr)
			}
			if call == nil || !journalCall(call) {
				return false
			}
			ev[p.Fset.Position(call.Pos()).String()] = call.Pos()
			return true
		},
		node: func(n ast.Node, ev facts[token.Pos]) {
			call, ok := n.(*ast.CallExpr)
			if !ok || !sendCall(call) {
				return
			}
			earliest := token.NoPos
			for _, pos := range ev {
				if earliest == token.NoPos || pos < earliest {
					earliest = pos
				}
			}
			*out = append(*out, p.finding(call.Pos(), "walorder",
				"network send while the journal append at line %d awaits confirmation (result discarded); durable-before-send (DESIGN §4e): check the fsync outcome and gate this send on it",
				p.Fset.Position(earliest).Line))
		},
	}
	return w
}
