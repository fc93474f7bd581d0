// Package smp is a fixture for TestOneSyncManager: a method that shares
// a constructor's name, on a value that is not the package, is not one.
package smp

type table struct{}

func (table) NewVLock() int { return 0 }

func use(vclock table) int { return vclock.NewVLock() }
