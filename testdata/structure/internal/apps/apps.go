// Package apps is a fixture for TestStructure.
package apps

func SOR(m any, n, iters int, opt bool) any { return nil }
