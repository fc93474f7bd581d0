// Package amsg is a fixture for TestStructure.
package amsg

type Layer struct{}
