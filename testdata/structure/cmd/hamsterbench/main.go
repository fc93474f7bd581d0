// Command hamsterbench is a fixture for TestStructure: with internal/bench
// it is the campaign harness (harness_budget).
package main

func main() {}
