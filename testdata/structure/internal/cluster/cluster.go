// Package cluster is a fixture for TestStructure.
package cluster
