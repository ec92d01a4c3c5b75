// Package store provides the storage substrate of PReVer: a versioned
// (MVCC) key-value store with consistent snapshots, plus a typed table
// layer (schemas, latest rows, scans, equality probes) that the
// constraint engine evaluates over.
//
// The store is deliberately in-memory: the paper's contribution is the
// verification/privacy architecture layered on top, not the storage medium.
// All mutation goes through a single writer lock; KV reads are served from
// immutable version chains so snapshots never block writers.
package store

import (
	"fmt"
	"strconv"
	"time"
)

// Kind enumerates the runtime types a table cell (or constraint expression)
// can hold.
type Kind uint8

// The supported value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindTime
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindBool:
		return "BOOL"
	case KindTime:
		return "TIME"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed cell value: a small tagged union, avoiding
// interface boxing on the hot evaluation path.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	S    string
	B    bool
	T    time.Time
}

// Constructors for each kind.

// Null returns the NULL value.
func Null() Value { return Value{Kind: KindNull} }

// Int wraps an int64.
func Int(i int64) Value { return Value{Kind: KindInt, I: i} }

// Float wraps a float64.
func Float(f float64) Value { return Value{Kind: KindFloat, F: f} }

// String_ wraps a string. (Named with a trailing underscore because String
// is the Stringer method.)
func String_(s string) Value { return Value{Kind: KindString, S: s} }

// Bool wraps a bool.
func Bool(b bool) Value { return Value{Kind: KindBool, B: b} }

// Time wraps a time.Time.
func Time(t time.Time) Value { return Value{Kind: KindTime, T: t} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// String renders the value for debugging and CLI output.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.S)
	case KindBool:
		return strconv.FormatBool(v.B)
	case KindTime:
		return v.T.UTC().Format(time.RFC3339)
	default:
		return "?"
	}
}

// AsFloat converts numeric values to float64.
func (v Value) AsFloat() (float64, error) {
	switch v.Kind {
	case KindInt:
		return float64(v.I), nil
	case KindFloat:
		return v.F, nil
	default:
		return 0, fmt.Errorf("store: %s is not numeric", v.Kind)
	}
}

// AsInt converts to int64 when the value is an integer (or an integral
// float).
func (v Value) AsInt() (int64, error) {
	switch v.Kind {
	case KindInt:
		return v.I, nil
	case KindFloat:
		if v.F == float64(int64(v.F)) {
			return int64(v.F), nil
		}
		return 0, fmt.Errorf("store: float %v is not integral", v.F)
	default:
		return 0, fmt.Errorf("store: %s is not an integer", v.Kind)
	}
}

// Equal reports deep equality with numeric cross-kind comparison
// (Int(3) equals Float(3)).
func (v Value) Equal(o Value) bool {
	if v.Kind == o.Kind {
		switch v.Kind {
		case KindNull:
			return true
		case KindInt:
			return v.I == o.I
		case KindFloat:
			return v.F == o.F
		case KindString:
			return v.S == o.S
		case KindBool:
			return v.B == o.B
		case KindTime:
			return v.T.Equal(o.T)
		}
	}
	if v.isNumeric() && o.isNumeric() {
		a, _ := v.AsFloat()
		b, _ := o.AsFloat()
		return a == b
	}
	return false
}

// Compare orders two values: -1, 0 or +1. Returns an error for
// incomparable kinds (e.g. string vs int, anything vs NULL).
func (v Value) Compare(o Value) (int, error) {
	if v.isNumeric() && o.isNumeric() {
		a, _ := v.AsFloat()
		b, _ := o.AsFloat()
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if v.Kind != o.Kind {
		return 0, fmt.Errorf("store: cannot compare %s with %s", v.Kind, o.Kind)
	}
	switch v.Kind {
	case KindString:
		switch {
		case v.S < o.S:
			return -1, nil
		case v.S > o.S:
			return 1, nil
		default:
			return 0, nil
		}
	case KindTime:
		switch {
		case v.T.Before(o.T):
			return -1, nil
		case v.T.After(o.T):
			return 1, nil
		default:
			return 0, nil
		}
	case KindBool:
		a, b := 0, 0
		if v.B {
			a = 1
		}
		if o.B {
			b = 1
		}
		return a - b, nil
	default:
		return 0, fmt.Errorf("store: cannot compare values of kind %s", v.Kind)
	}
}

func (v Value) isNumeric() bool { return v.Kind == KindInt || v.Kind == KindFloat }
