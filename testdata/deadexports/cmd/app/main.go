// Command app is the fixture's in-module caller.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	p := lib.Point{X: 1}
	fmt.Println(p, lib.Total(p))
}
