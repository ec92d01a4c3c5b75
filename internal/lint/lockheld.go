package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockHeld reports blocking operations — channel sends and receives,
// selects without a default, and Wait calls — executed while a mutex is
// held. This is the exact shape of the netsim send/close race PR 1 fixed:
// a goroutine parked on a channel while holding the lock that the closer
// needs. The scan is deliberately conservative the safe way around: a
// branch whose fall-through paths all unlock clears the lock, and a
// select with a default clause is non-blocking, so code that unlocks
// before it blocks (paxos's replica and clients) stays silent.
var LockHeld = &Analyzer{
	Name: "lockheld",
	Doc:  "mutex held across a channel operation or other blocking call",
	Run: func(p *Package) []Finding {
		var out []Finding
		forEachFunc(p, lockHeldRule(p, &out).frame)
		return out
	},
}

// lockHeldRule tracks which mutexes are held, keyed by the printed
// receiver expression ("mu", "s.mu") and mapped to the Lock position,
// and reports blocking operations evaluated under them.
func lockHeldRule(p *Package, out *[]Finding) *walker[token.Pos] {
	report := func(pos token.Pos, what string, held facts[token.Pos]) {
		for name, lockPos := range held {
			*out = append(*out, p.finding(pos, "lockheld",
				"%s while %s is held (Lock at line %d); a parked goroutine keeps the lock and can deadlock the unlocker",
				what, name, p.Fset.Position(lockPos).Line))
		}
	}
	// comm holds the communications of the selects walked so far: a
	// select is reported once, at the select, and one with a default
	// does not block at all.
	comm := map[ast.Stmt]bool{}
	return &walker[token.Pos]{
		stmt: func(st ast.Stmt, held facts[token.Pos]) bool {
			if comm[st] {
				return true
			}
			switch st := st.(type) {
			case *ast.ExprStmt:
				call, ok := st.X.(*ast.CallExpr)
				if !ok {
					return false
				}
				switch recv, method := lockCall(call); method {
				case "Lock", "RLock":
					held[recv] = call.Pos()
				case "Unlock", "RUnlock":
					delete(held, recv)
				default:
					return false
				}
				return true
			case *ast.DeferStmt:
				// defer m.Unlock() keeps the lock held to the end of the
				// frame; other deferred calls run after the frame's
				// blocking ops anyway.
				if recv, method := lockCall(st.Call); method == "Lock" || method == "RLock" {
					held[recv] = st.Call.Pos()
				}
				return true
			case *ast.SendStmt:
				if len(held) > 0 {
					report(st.Arrow, "channel send", held)
				}
			case *ast.SelectStmt:
				hasDefault := false
				for _, c := range st.Body.List {
					if cc := c.(*ast.CommClause); cc.Comm != nil {
						comm[cc.Comm] = true
					} else {
						hasDefault = true
					}
				}
				if !hasDefault && len(held) > 0 {
					report(st.Select, "select without default", held)
				}
			}
			return false
		},
		// Channel receives and .Wait() calls block.
		node: func(n ast.Node, held facts[token.Pos]) {
			switch n := n.(type) {
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					report(n.OpPos, "channel receive", held)
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
					report(n.Pos(), types.ExprString(sel)+"() call", held)
				}
			}
		},
	}
}

// lockCall returns the receiver expression and method of a
// m.Lock/RLock/Unlock/RUnlock-style call, or "", "" if the call is not one.
func lockCall(call *ast.CallExpr) (recv string, method string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return types.ExprString(sel.X), sel.Sel.Name
	}
	return "", ""
}
