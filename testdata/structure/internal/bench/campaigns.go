// Package bench is a fixture for TestStructure (one_cluster_builder).
package bench

import "hamster/internal/apps"

var standard = apps.SOR(m, 192,
	6, true)
