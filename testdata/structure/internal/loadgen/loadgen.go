// Package loadgen is a fixture for TestStructure.
package loadgen

func NewZipf(keys []int, skew float64) any { return nil }
