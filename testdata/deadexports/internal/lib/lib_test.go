package lib_test

import (
	"testing"

	"fixture/internal/lib"
)

func TestTestOnly(t *testing.T) {
	if lib.TestOnly() != 2 {
		t.Fatal("TestOnly")
	}
}

func TestKnobs(t *testing.T) {
	var c lib.Config
	c.TestKnob = 2
	if lib.Knobs(c) != 2 {
		t.Fatal("Knobs")
	}
}
