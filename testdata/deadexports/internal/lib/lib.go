// Package lib is the dead-export gate's fixture: each of its exports is
// one case the gate must get right.
package lib

import "fmt"

// Dead is called by nobody: convicted.
func Dead() int { return 1 }

// TestOnly is called only by lib's tests: convicted.
func TestOnly() int { return 2 }

// BenchOnly is called only by the benchmark/ module, which has a go.mod
// of its own: passes.
func BenchOnly() int { return 3 }

// Sizer is called through by Total.
type Sizer interface{ Size() int }

// Total sums sizes through the interface.
func Total(s ...Sizer) int {
	n := 0
	for _, x := range s {
		n += x.Size()
	}
	return n
}

// Point is built by the app.
type Point struct{ X int }

// Size is reached only through Sizer: passes.
func (p Point) Size() int { return p.X }

// String is reached only through fmt.Stringer: passes.
func (p Point) String() string { return fmt.Sprint("point ", p.X) }

// Config is the gate's configuration-struct case: its fields are held to
// being written outside lib.
type Config struct {
	// TestKnob is set only by lib's tests: convicted.
	TestKnob int
	// BenchKnob is set only by the benchmark/ module: passes.
	BenchKnob int
}

// Knobs sums a configuration.
func Knobs(c Config) int { return c.TestKnob + c.BenchKnob }
