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
