package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"hamster/internal/consengine"
	"hamster/internal/machine"
	"hamster/internal/multidsm"
	"hamster/internal/platform"
)

// TestNodePanicUnblocksPeers: a node that panics must not leave its peers
// blocked forever in a barrier it will never reach or on a lock it will
// never release — Run has to come back with the original panic. Every
// substrate gets this from the synchronization manager it embeds; before
// that, only the two software-DSM engines implemented AbortSync and the
// others hung here.
func TestNodePanicUnblocksPeers(t *testing.T) {
	viaConfig := func(cfg Config) func(t *testing.T) *Runtime {
		return func(t *testing.T) *Runtime {
			cfg.Nodes = 2
			rt, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return rt
		}
	}
	substrates := []struct {
		name  string
		build func(t *testing.T) *Runtime
	}{
		{"smp", viaConfig(Config{Platform: platform.SMP})},
		{"hybriddsm", viaConfig(Config{Platform: platform.HybridDSM})},
		{"swdsm-scope", viaConfig(Config{Platform: platform.SWDSM})},
		{"swdsm-ivy", viaConfig(Config{Platform: platform.SWDSM, Engine: consengine.IVYName})},
		{"multidsm", func(t *testing.T) *Runtime {
			sub, err := multidsm.New(multidsm.Config{Nodes: 2})
			if err != nil {
				t.Fatal(err)
			}
			return newWithSubstrate(sub, machine.Default().Ethernet, false)
		}},
	}
	// Each survivor blocks in one synchronization call; held and waiting
	// order the two nodes on the host so the survivor is at (or about to
	// enter) that call when its peer dies.
	survivors := []struct {
		name string
		run  func(e *Env, lock int, held, waiting chan struct{})
	}{
		{"barrier", func(e *Env, _ int, held, waiting chan struct{}) {
			if e.ID() == 1 {
				panic("boom")
			}
			e.Sync.Barrier()
		}},
		{"lock", func(e *Env, lock int, held, waiting chan struct{}) {
			if e.ID() == 1 {
				e.Sync.Lock(lock)
				close(held)
				<-waiting
				panic("boom")
			}
			<-held
			close(waiting)
			e.Sync.Lock(lock)
		}},
	}
	for _, sub := range substrates {
		for _, sv := range survivors {
			t.Run(sub.name+"/"+sv.name, func(t *testing.T) {
				rt := sub.build(t)
				defer rt.Close()
				lock := rt.Substrate().NewLock()
				held, waiting := make(chan struct{}), make(chan struct{})
				raised := make(chan any, 1)
				go func() {
					defer func() { raised <- recover() }()
					rt.Run(func(e *Env) { sv.run(e, lock, held, waiting) })
				}()
				select {
				case r := <-raised:
					if !strings.Contains(fmt.Sprint(r), "boom") {
						t.Fatalf("Run re-raised %v, want the failed node's panic", r)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("Run still blocked 5 s after a node panicked")
				}
			})
		}
	}
}
