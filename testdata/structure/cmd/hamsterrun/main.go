// Command hamsterrun is a fixture for TestStructure: it checks topology
// names itself and parses a platform name (one_cluster_description).
package main

import (
	"flag"
	"strings"

	"hamster"
)

func main() {
	fs := flag.NewFlagSet("hamsterrun", flag.ExitOnError)
	var engine string
	fs.StringVar(&engine, "engine", "", "engine: "+strings.Join(hamster.EngineNames(), ", "))
	for _, name := range hamster.TopologyNames() {
		_ = name
	}
	_ = engine == "hybrid-dsm"
}
