package constraint

import (
	"errors"
	"fmt"
	"time"

	"prever/internal/store"
)

// Env is the evaluation environment: the incoming update plus the database
// tables the constraint may aggregate over.
type Env struct {
	// UpdateName is the alias the expression uses for the update row
	// (conventionally "u").
	UpdateName string
	// Update is the incoming update's fields.
	Update store.Row
	// Tables maps table names to their current contents.
	Tables map[string]*store.Table

	// scanRow/scanTable bind the current row during an aggregate scan.
	scanRow   store.Row
	scanTable string
}

// EvalError reports an evaluation failure.
type EvalError struct {
	Expr Expr
	Err  error
}

func (e *EvalError) Error() string {
	return fmt.Sprintf("constraint: evaluating %s: %v", e.Expr, e.Err)
}

func (e *EvalError) Unwrap() error { return e.Err }

func evalErr(expr Expr, err error) error {
	var ee *EvalError
	if errors.As(err, &ee) {
		return err // keep the innermost location
	}
	return &EvalError{Expr: expr, Err: err}
}

// Eval evaluates an expression to a value.
func Eval(e Expr, env *Env) (store.Value, error) {
	switch n := e.(type) {
	case *Lit:
		return n.Value, nil
	case *Ref:
		return evalRef(n, env)
	case *Neg:
		v, err := Eval(n.X, env)
		if err != nil {
			return store.Null(), err
		}
		switch v.Kind {
		case store.KindInt:
			return store.Int(-v.I), nil
		case store.KindFloat:
			return store.Float(-v.F), nil
		default:
			return store.Null(), evalErr(e, fmt.Errorf("cannot negate %s", v.Kind))
		}
	case *Not:
		v, err := Eval(n.X, env)
		if err != nil {
			return store.Null(), err
		}
		if v.Kind != store.KindBool {
			return store.Null(), evalErr(e, fmt.Errorf("NOT needs a boolean, got %s", v.Kind))
		}
		return store.Bool(!v.B), nil
	case *Binary:
		return evalBinary(n, env)
	case *Between:
		x, err := Eval(n.X, env)
		if err != nil {
			return store.Null(), err
		}
		lo, err := Eval(n.Lo, env)
		if err != nil {
			return store.Null(), err
		}
		hi, err := Eval(n.Hi, env)
		if err != nil {
			return store.Null(), err
		}
		cLo, err := x.Compare(lo)
		if err != nil {
			return store.Null(), evalErr(e, err)
		}
		cHi, err := x.Compare(hi)
		if err != nil {
			return store.Null(), evalErr(e, err)
		}
		return store.Bool(cLo >= 0 && cHi <= 0), nil
	case *In:
		x, err := Eval(n.X, env)
		if err != nil {
			return store.Null(), err
		}
		for _, item := range n.List {
			v, err := Eval(item, env)
			if err != nil {
				return store.Null(), err
			}
			if x.Equal(v) {
				return store.Bool(true), nil
			}
		}
		return store.Bool(false), nil
	case *Agg:
		return evalAgg(n, env)
	default:
		return store.Null(), evalErr(e, fmt.Errorf("unknown node type %T", e))
	}
}

// EvalBool evaluates a constraint to its Boolean verdict.
func EvalBool(e Expr, env *Env) (bool, error) {
	v, err := Eval(e, env)
	if err != nil {
		return false, err
	}
	if v.Kind != store.KindBool {
		return false, evalErr(e, fmt.Errorf("constraint evaluates to %s, not BOOL", v.Kind))
	}
	return v.B, nil
}

// updateName is the alias the update row goes by.
func (env *Env) updateName() string {
	if env.UpdateName == "" {
		return "u"
	}
	return env.UpdateName
}

func evalRef(r *Ref, env *Env) (store.Value, error) {
	if r.Base == env.updateName() {
		v, ok := env.Update[r.Field]
		if !ok {
			return store.Null(), evalErr(r, fmt.Errorf("update has no field %q", r.Field))
		}
		return v, nil
	}
	if env.scanRow != nil && r.Base == env.scanTable {
		v, ok := env.scanRow[r.Field]
		if !ok {
			return store.Null(), evalErr(r, fmt.Errorf("table %q has no column %q", r.Base, r.Field))
		}
		return v, nil
	}
	return store.Null(), evalErr(r, fmt.Errorf("unknown reference base %q (outside an aggregate over it?)", r.Base))
}

func evalBinary(b *Binary, env *Env) (store.Value, error) {
	// Short-circuit booleans.
	if b.Op == OpAnd || b.Op == OpOr {
		l, err := Eval(b.L, env)
		if err != nil {
			return store.Null(), err
		}
		if l.Kind != store.KindBool {
			return store.Null(), evalErr(b, fmt.Errorf("%s needs booleans, got %s", b.Op, l.Kind))
		}
		if b.Op == OpAnd && !l.B {
			return store.Bool(false), nil
		}
		if b.Op == OpOr && l.B {
			return store.Bool(true), nil
		}
		r, err := Eval(b.R, env)
		if err != nil {
			return store.Null(), err
		}
		if r.Kind != store.KindBool {
			return store.Null(), evalErr(b, fmt.Errorf("%s needs booleans, got %s", b.Op, r.Kind))
		}
		return r, nil
	}
	l, err := Eval(b.L, env)
	if err != nil {
		return store.Null(), err
	}
	r, err := Eval(b.R, env)
	if err != nil {
		return store.Null(), err
	}
	switch b.Op {
	case OpEq:
		return store.Bool(l.Equal(r)), nil
	case OpNeq:
		return store.Bool(!l.Equal(r)), nil
	case OpLt, OpLte, OpGt, OpGte:
		c, err := l.Compare(r)
		if err != nil {
			return store.Null(), evalErr(b, err)
		}
		switch b.Op {
		case OpLt:
			return store.Bool(c < 0), nil
		case OpLte:
			return store.Bool(c <= 0), nil
		case OpGt:
			return store.Bool(c > 0), nil
		default:
			return store.Bool(c >= 0), nil
		}
	case OpAdd, OpSub, OpMul, OpDiv:
		return evalArith(b, l, r)
	default:
		return store.Null(), evalErr(b, fmt.Errorf("unknown operator %q", b.Op))
	}
}

func evalArith(b *Binary, l, r store.Value) (store.Value, error) {
	// Integer arithmetic stays integral except division.
	if l.Kind == store.KindInt && r.Kind == store.KindInt && b.Op != OpDiv {
		switch b.Op {
		case OpAdd:
			return store.Int(l.I + r.I), nil
		case OpSub:
			return store.Int(l.I - r.I), nil
		case OpMul:
			return store.Int(l.I * r.I), nil
		}
	}
	lf, err := l.AsFloat()
	if err != nil {
		return store.Null(), evalErr(b, err)
	}
	rf, err := r.AsFloat()
	if err != nil {
		return store.Null(), evalErr(b, err)
	}
	switch b.Op {
	case OpAdd:
		return store.Float(lf + rf), nil
	case OpSub:
		return store.Float(lf - rf), nil
	case OpMul:
		return store.Float(lf * rf), nil
	case OpDiv:
		if rf == 0 {
			return store.Null(), evalErr(b, errors.New("division by zero"))
		}
		return store.Float(lf / rf), nil
	default:
		return store.Null(), evalErr(b, fmt.Errorf("unknown arithmetic op %q", b.Op))
	}
}

func evalAgg(a *Agg, env *Env) (store.Value, error) {
	tbl, ok := env.Tables[a.Table]
	if !ok {
		return store.Null(), evalErr(a, fmt.Errorf("unknown table %q", a.Table))
	}
	// Resolve the window bounds once (the anchor may reference the update).
	var winLo, winHi time.Time
	if a.Window != nil {
		anchor, err := Eval(a.Window.Anchor, env)
		if err != nil {
			return store.Null(), err
		}
		if anchor.Kind != store.KindTime {
			return store.Null(), evalErr(a, fmt.Errorf("window anchor is %s, not TIME", anchor.Kind))
		}
		winHi = anchor.T
		winLo = anchor.T.Add(-a.Window.Dur)
	}
	count := int64(0)
	sum := 0.0
	sumIsInt := true
	sumInt := int64(0)
	var minV, maxV store.Value
	var scanErr error
	scan := tbl.Scan
	if col, v, ok := eqProbe(a.Where, a.Table, env); ok {
		scan = func(fn func(string, store.Row) bool) { tbl.ScanEq(col, v, fn) }
	}
	scan(func(_ string, row store.Row) bool {
		// Window filter.
		if a.Window != nil {
			field := a.Window.TimeField
			tv, ok := row[field]
			if !ok || tv.Kind != store.KindTime {
				scanErr = evalErr(a, fmt.Errorf("row lacks TIME column %q for window", field))
				return false
			}
			if tv.T.Before(winLo) || tv.T.After(winHi) {
				return true
			}
		}
		// WHERE filter with the row bound.
		if a.Where != nil {
			inner := *env
			inner.scanRow = row
			inner.scanTable = a.Table
			keep, err := EvalBool(a.Where, &inner)
			if err != nil {
				scanErr = err
				return false
			}
			if !keep {
				return true
			}
		}
		count++
		if a.Column == "" {
			return true
		}
		v, ok := row[a.Column]
		if !ok {
			scanErr = evalErr(a, fmt.Errorf("table %q has no column %q", a.Table, a.Column))
			return false
		}
		if v.IsNull() {
			return true // NULLs are skipped, SQL-style
		}
		switch a.Fn {
		case FnSum, FnAvg:
			f, err := v.AsFloat()
			if err != nil {
				scanErr = evalErr(a, err)
				return false
			}
			sum += f
			if v.Kind == store.KindInt {
				sumInt += v.I
			} else {
				sumIsInt = false
			}
		case FnMin:
			if minV.IsNull() {
				minV = v
			} else if c, err := v.Compare(minV); err != nil {
				scanErr = evalErr(a, err)
				return false
			} else if c < 0 {
				minV = v
			}
		case FnMax:
			if maxV.IsNull() {
				maxV = v
			} else if c, err := v.Compare(maxV); err != nil {
				scanErr = evalErr(a, err)
				return false
			} else if c > 0 {
				maxV = v
			}
		}
		return true
	})
	if scanErr != nil {
		return store.Null(), scanErr
	}
	switch a.Fn {
	case FnCount:
		return store.Int(count), nil
	case FnSum:
		if sumIsInt {
			return store.Int(sumInt), nil
		}
		return store.Float(sum), nil
	case FnAvg:
		if count == 0 {
			return store.Null(), nil
		}
		return store.Float(sum / float64(count)), nil
	case FnMin:
		return minV, nil
	case FnMax:
		return maxV, nil
	default:
		return store.Null(), evalErr(a, fmt.Errorf("unknown aggregate %q", a.Fn))
	}
}

// eqProbe finds, among the top-level AND conjuncts of an aggregate's
// WHERE, the first of the form table.col = e where e reads nothing of the
// scanned row, and evaluates e. A row whose col does not equal that value
// fails the WHERE, so the aggregate need only visit ScanEq's rows, which
// it still filters through the whole WHERE and the window, in key order.
// No probe is made if e fails to evaluate: the full scan then reports
// whatever error the rows reach.
func eqProbe(where Expr, table string, env *Env) (string, store.Value, bool) {
	b, ok := where.(*Binary)
	if !ok || table == env.updateName() {
		return "", store.Value{}, false
	}
	switch b.Op {
	case OpAnd:
		if col, v, ok := eqProbe(b.L, table, env); ok {
			return col, v, true
		}
		return eqProbe(b.R, table, env)
	case OpEq:
		for _, side := range [2][2]Expr{{b.L, b.R}, {b.R, b.L}} {
			r, ok := side[0].(*Ref)
			if !ok || r.Base != table || !updateOnly(side[1], env.updateName()) {
				continue
			}
			if v, err := Eval(side[1], env); err == nil {
				return r.Field, v, true
			}
		}
	}
	return "", store.Value{}, false
}

// updateOnly reports whether e reads nothing but literals and the update
// row, so it has one value for every row of a scan.
func updateOnly(e Expr, update string) bool {
	switch n := e.(type) {
	case *Lit:
		return true
	case *Ref:
		return n.Base == update
	case *Neg:
		return updateOnly(n.X, update)
	case *Not:
		return updateOnly(n.X, update)
	case *Binary:
		return updateOnly(n.L, update) && updateOnly(n.R, update)
	case *Between:
		return updateOnly(n.X, update) && updateOnly(n.Lo, update) && updateOnly(n.Hi, update)
	case *In:
		for _, item := range n.List {
			if !updateOnly(item, update) {
				return false
			}
		}
		return updateOnly(n.X, update)
	default:
		return false
	}
}
