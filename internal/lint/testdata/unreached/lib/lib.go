// Package lib is the declaring half of the unreached fixture: package
// user, a command, reaches some of it; lib_test.go calls more.
package lib

import (
	"cmp"
	"fmt"
)

// TestOnly is called from lib_test.go alone.
func TestOnly() int { return 1 } // want unreached

// Fact calls nothing but itself.
func Fact(n int) int { // want unreached
	if n == 0 {
		return 1
	}
	return n * Fact(n-1)
}

// limit is declared and never read.
const limit = 3 // want unreached

// Shape is named by user, which calls Area through it.
type Shape interface{ Area() int }

// Square reaches Area only through Shape.
type Square struct{ Side int }

func (s Square) Area() int { return s.Side * s.Side }

// Tile is generic; its Area is reached only through Shape.
type Tile[T any] struct{ Label T }

func (Tile[T]) Area() int { return 1 }

// Perimeter is reached by nothing.
func (s Square) Perimeter() int { return 4 * s.Side } // want unreached

// Celsius is printed by fmt, which calls String by name.
type Celsius float64

func (c Celsius) String() string { return fmt.Sprintf("%.1f C", float64(c)) }

// Max is used only instantiated.
func Max[T cmp.Ordered](a, b T) T {
	if a > b {
		return a
	}
	return b
}

// Stack's Push is called only on an instantiation.
type Stack[T any] struct{ items []T }

func (s *Stack[T]) Push(v T) { s.items = append(s.items, v) }
