// Command user is the using half of the unreached fixture.
package main

import (
	"fmt"

	"prever/internal/lint/testdata/unreached/lib"
)

func describe(s lib.Shape) int { return s.Area() }

func main() {
	var s lib.Stack[int]
	s.Push(1)
	fmt.Println(describe(lib.Square{Side: 2}), describe(lib.Tile[string]{}), lib.Celsius(21.5), lib.Max(3, 4))
}
