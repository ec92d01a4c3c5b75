package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// errCriticalNames are the mutation entry points whose error carries the
// outcome the caller exists to produce: Submit* (engine intake — a dropped
// error silently loses an update), Close (flush/drain failures), the
// store/ledger/token mutations, the consensus retry/failover surface
// (Propose, BecomeLeader, Crash, Restart — an ignored error there means a
// value that never committed or a fault that was never injected), and the
// batched async submission surface (ProposeBatch/ProposeAsync/Add start a
// proposal, Wait resolves a pipelined Pending — dropping any of their
// errors silently loses a batch outcome), and the durability surface
// (Snapshot/Restore/AppendSync/CloseStorage/SaveFile — an ignored error
// there means state that was never actually persisted, or a restore that
// silently left the old state in place), and the batch verifiers
// (Verify*Batch — they return per-proof verdicts plus an operational
// error, and a discarded result means forged proofs sail through). The
// type checker gates the name match: a call is only flagged if its
// result tuple actually contains an error, so merkle.Tree.Append
// (returns int), netsim.Network.Close (returns nothing) or
// sync.WaitGroup.Wait never trigger.
func errCriticalName(name string) bool {
	if strings.HasPrefix(name, "Submit") {
		return true
	}
	if strings.HasPrefix(name, "Verify") && strings.HasSuffix(name, "Batch") {
		return true
	}
	switch name {
	case "Close", "Put", "Delete", "Append", "MarkSpent", "Finalize", "Spend", "Flush", "Sync",
		"Propose", "BecomeLeader", "Crash", "Restart",
		"ProposeBatch", "ProposeAsync", "Add", "Wait",
		"Snapshot", "Restore", "AppendSync", "CloseStorage", "SaveFile":
		return true
	}
	return false
}

// isDecoderName matches the decoders at the trust boundaries (DecodeBatch,
// decodeTx, decodePrePrepare, json's Decode, ...). Their last result —
// an ok bool or an error — says whether the other results mean anything.
func isDecoderName(name string) bool {
	return strings.HasPrefix(name, "Decode") || strings.HasPrefix(name, "decode")
}

// decoderVerdict reports whether the call is to a decoder whose last
// result is its verdict, and names that result's kind.
func decoderVerdict(p *Package, call *ast.CallExpr) (string, bool) {
	if !isDecoderName(calleeName(call)) {
		return "", false
	}
	last := p.Info.TypeOf(call)
	if tup, ok := last.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return "", false
		}
		last = tup.At(tup.Len() - 1).Type()
	}
	switch {
	case isErrorType(last):
		return "error", true
	case last != nil && last.String() == "bool":
		return "ok", true
	}
	return "", false
}

// ErrIgnored reports calls to error-critical mutation methods whose error
// result is silently discarded: a bare call statement, `defer x.Close()`,
// or `go x.Submit(...)`. Assigning the error — including an explicit
// `_ =`, which documents the decision at the call site — is accepted.
//
// Decoders are held to more: the verdict of a Decode*/decode* call (its
// trailing ok or error) may not be dropped at all, not even into `_` —
// `ops, _ := DecodeBatch(v)` goes on to use ops as if v had been a batch,
// and input that is not one vanishes without a trace.
var ErrIgnored = &Analyzer{
	Name: "errignored",
	Doc:  "discarded error from Submit/Close/store mutation calls; dropped ok/error of a decoder",
	Run: func(p *Package) []Finding {
		var out []Finding
		check := func(call *ast.CallExpr, how string) {
			name := calleeName(call)
			if name == "" || !errCriticalName(name) {
				return
			}
			if !returnsError(p, call) {
				return
			}
			out = append(out, p.finding(call.Pos(), "errignored",
				"%s of %s discards its error; assign and handle it (or discard explicitly with _ =)", how, name))
		}
		checkDecoder := func(call *ast.CallExpr, lhs []ast.Expr) {
			verdict, ok := decoderVerdict(p, call)
			if !ok {
				return
			}
			if len(lhs) > 0 {
				if id, ok := lhs[len(lhs)-1].(*ast.Ident); !ok || id.Name != "_" {
					return
				}
			}
			out = append(out, p.finding(call.Pos(), "errignored",
				"%s result of %s is dropped; input that does not decode must be handled or counted", verdict, calleeName(call)))
		}
		for _, file := range p.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ExprStmt:
					if call, ok := n.X.(*ast.CallExpr); ok {
						check(call, "call")
						checkDecoder(call, nil)
					}
				case *ast.AssignStmt:
					if len(n.Rhs) == 1 {
						if call, ok := n.Rhs[0].(*ast.CallExpr); ok {
							checkDecoder(call, n.Lhs)
						}
					}
				case *ast.DeferStmt:
					check(n.Call, "deferred call")
				case *ast.GoStmt:
					check(n.Call, "go call")
				}
				return true
			})
		}
		return out
	},
}

func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.SelectorExpr:
		return f.Sel.Name
	case *ast.Ident:
		return f.Name
	}
	return ""
}

// returnsError reports whether the call's result tuple contains an error.
func returnsError(p *Package, call *ast.CallExpr) bool {
	t := p.Info.TypeOf(call)
	if t == nil {
		return false
	}
	switch t := t.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

func isErrorType(t types.Type) bool {
	return t != nil && t.String() == "error"
}
