package constraint

import (
	"prever/internal/store"
)

// Term is one additive term of a linear bound form: Coeff times either an
// update field, an aggregate, or 1 (a constant).
type Term struct {
	Coeff       int64
	UpdateField string // set for u.field terms
	Agg         *Agg   // set for aggregate terms
	IsConst     bool   // set for constant terms (value = Coeff)
}

// BoundForm is a constraint in the canonical shape
//
//	Σ terms  OP  bound        (OP ∈ {<=, <, >=, >})
//
// — the class of constraints PReVer's privacy-preserving engines can check
// without general computation: homomorphically under Paillier (RC1), by
// token budgets (RC2 centralized), or by a masked compare of encrypted
// totals (RC2 decentralized).
type BoundForm struct {
	Terms []Term
	Op    BinaryOp // OpLte, OpLt, OpGte or OpGt
	Bound int64
}

// UpperBound reports whether the form is an upper bound (<= / <).
func (b *BoundForm) UpperBound() bool { return b.Op == OpLte || b.Op == OpLt }

// CompileBound recognizes constraints of linear bound shape and returns
// their canonical form. Only integer coefficients and bounds are
// recognized; anything else (floats, OR, general comparisons) returns
// ok = false and callers fall back to plaintext evaluation.
func CompileBound(e Expr) (*BoundForm, bool) {
	b, ok := e.(*Binary)
	if !ok {
		return nil, false
	}
	var op BinaryOp
	switch b.Op {
	case OpLte, OpLt, OpGte, OpGt:
		op = b.Op
	default:
		return nil, false
	}
	bound, ok := intLit(b.R)
	if !ok {
		// Allow "bound >= expr" spelled the other way around.
		if lb, lok := intLit(b.L); lok {
			terms, tok := linearTerms(b.R, 1)
			if !tok {
				return nil, false
			}
			return &BoundForm{Terms: terms, Op: flipOp(op), Bound: lb}, true
		}
		return nil, false
	}
	terms, ok := linearTerms(b.L, 1)
	if !ok {
		return nil, false
	}
	return &BoundForm{Terms: terms, Op: op, Bound: bound}, true
}

func flipOp(op BinaryOp) BinaryOp {
	switch op {
	case OpLte:
		return OpGte
	case OpLt:
		return OpGt
	case OpGte:
		return OpLte
	case OpGt:
		return OpLt
	default:
		return op
	}
}

func intLit(e Expr) (int64, bool) {
	switch n := e.(type) {
	case *Lit:
		if n.Value.Kind == store.KindInt {
			return n.Value.I, true
		}
	case *Neg:
		if v, ok := intLit(n.X); ok {
			return -v, true
		}
	}
	return 0, false
}

// linearTerms decomposes e into additive terms, each scaled by sign.
func linearTerms(e Expr, sign int64) ([]Term, bool) {
	switch n := e.(type) {
	case *Binary:
		switch n.Op {
		case OpAdd:
			l, ok := linearTerms(n.L, sign)
			if !ok {
				return nil, false
			}
			r, ok := linearTerms(n.R, sign)
			if !ok {
				return nil, false
			}
			return append(l, r...), true
		case OpSub:
			l, ok := linearTerms(n.L, sign)
			if !ok {
				return nil, false
			}
			r, ok := linearTerms(n.R, -sign)
			if !ok {
				return nil, false
			}
			return append(l, r...), true
		case OpMul:
			// coeff * atom or atom * coeff
			if k, ok := intLit(n.L); ok {
				return scaledAtom(n.R, sign*k)
			}
			if k, ok := intLit(n.R); ok {
				return scaledAtom(n.L, sign*k)
			}
			return nil, false
		default:
			return nil, false
		}
	case *Neg:
		return linearTerms(n.X, -sign)
	default:
		return scaledAtom(e, sign)
	}
}

// scaledAtom wraps a single non-additive atom as a term.
func scaledAtom(e Expr, coeff int64) ([]Term, bool) {
	switch n := e.(type) {
	case *Lit:
		if n.Value.Kind == store.KindInt {
			return []Term{{Coeff: coeff * n.Value.I, IsConst: true}}, true
		}
		return nil, false
	case *Ref:
		// Only update references are atoms; bare table refs make no sense
		// outside aggregates.
		return []Term{{Coeff: coeff, UpdateField: n.Field}}, true
	case *Agg:
		if n.Fn != FnSum && n.Fn != FnCount {
			return nil, false // AVG/MIN/MAX are not linear
		}
		return []Term{{Coeff: coeff, Agg: n}}, true
	default:
		return nil, false
	}
}
