// Package platform is a fixture for TestStructure: ParseKind parses
// platform names (one_cluster_description).
package platform

func ParseKind(s string) int {
	if s == "hybrid-dsm" {
		return 1
	}
	return 0
}
