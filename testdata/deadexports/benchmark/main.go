// Command benchmark is the fixture's second module.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() { fmt.Println(lib.BenchOnly(), lib.Knobs(lib.Config{BenchKnob: 1})) }
