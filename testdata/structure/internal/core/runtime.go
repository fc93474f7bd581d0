// Package core is a fixture for TestStructure: it has two spawn sites
// (one_spawn_site).
package core

func goNode(f func()) {
	go f()
}

func spawn() {
	go func() {}()
}
