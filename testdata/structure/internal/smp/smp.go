// Package smp is a fixture for TestStructure. A method that shares a
// constructor's name, on a value that is not the package, is not a
// conviction (one_sync_manager); a chassis method on a value receiver and
// an exported *amsg.Layer field are (one_chassis).
package smp

import "hamster/internal/amsg"

type table struct{}

func (table) NewVLock() int { return 0 }

func use(vclock table) int { return vclock.NewVLock() }

type System struct{}

func (s System) Clock(id int) int { return id }

// Config takes a foreign layer.
type Config struct {
	Nodes int
	Layer *amsg.Layer
	layer *amsg.Layer // unexported: the engine's own
}
