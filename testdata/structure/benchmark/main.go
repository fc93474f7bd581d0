// Command benchmark is a fixture for TestStructure: the benchmark/ module
// writes the standard kernel set a second time (one_cluster_builder).
package main

import "hamster/internal/apps"

var kernel = apps.SOR(m, 192, 6, true)
