package swdsm

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"hamster/internal/amsg"
	"hamster/internal/memsim"
	"hamster/internal/pagestore"
	"hamster/internal/perfmon"
	"hamster/internal/simnet"
	"hamster/internal/vclock"
)

// Home migration (JiaJia's single-writer optimization): when one node
// keeps producing diffs for a page nobody else touches, the page's home
// migrates to that writer, turning every subsequent access into a local
// one. Detection is a per-page consecutive-diff counter (diffStreak),
// reset whenever the page is invalidated by someone else's write notice.
//
// Migration mutates the global home map, so it only runs inside a
// quiescent window: when any node has candidates, the barrier performs a
// second rendezvous — between the two rendezvous everyone is inside
// Barrier() and nobody touches data, so the fetch-install-retarget
// sequence cannot race with accesses or diff traffic.

// kindMigrate transfers a page's authoritative copy to a new home.
const kindMigrate amsg.Kind = 3

// migrationState coordinates one barrier's migration phase.
type migrationState struct {
	mu      sync.Mutex
	pending map[uint64]map[memsim.PageID]int // epoch -> page -> claiming node
	any     map[uint64]bool
	fetched map[uint64]int
}

func newMigrationState() *migrationState {
	return &migrationState{
		pending: make(map[uint64]map[memsim.PageID]int),
		any:     make(map[uint64]bool),
		fetched: make(map[uint64]int),
	}
}

// depositWishes records a node's migration candidates for an epoch; the
// first claimant of a page wins.
func (m *migrationState) depositWishes(epoch uint64, node int, pages []memsim.PageID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ep := m.pending[epoch]
	if ep == nil {
		ep = make(map[memsim.PageID]int)
		m.pending[epoch] = ep
	}
	for _, p := range pages {
		if _, taken := ep[p]; !taken {
			ep[p] = node
			m.any[epoch] = true
		}
	}
}

// grants returns the pages a node won for an epoch.
func (m *migrationState) grants(epoch uint64, node int) []memsim.PageID {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []memsim.PageID
	for p, n := range m.pending[epoch] {
		if n == node {
			out = append(out, p)
		}
	}
	return out
}

// peekAny reports whether the epoch has migration work.
func (m *migrationState) peekAny(epoch uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.any[epoch]
}

// finish reclaims an epoch's state once every node has passed through.
func (m *migrationState) finish(epoch uint64, nodes int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fetched[epoch]++
	if m.fetched[epoch] == nodes {
		delete(m.pending, epoch)
		delete(m.any, epoch)
		delete(m.fetched, epoch)
	}
}

// registerMigrateHandler installs the old-home side of a migration: give
// up the authoritative frame and return its contents.
func (d *DSM) registerMigrateHandler(n *node) {
	d.layer.Register(simnet.NodeID(n.id), kindMigrate, func(_ amsg.NodeID, req []byte) ([]byte, vclock.Duration) {
		dec := amsg.MakeDec(req)
		p := memsim.PageID(dec.U64())
		data := n.home.Drop(p)
		if data == nil {
			// Never materialized at the old home: hand over a zero page.
			data = pagestore.GetZeroedPage()
		}
		return data, d.Cost.CPU.PageCopyNs
	})
}

// migrationWishes collects this node's candidate pages (consecutive-diff
// streak at or above the threshold).
func (n *node) migrationWishes() []memsim.PageID {
	if n.dsm.migrateAfter <= 0 {
		return nil
	}
	var out []memsim.PageID
	for p, cp := range n.cache {
		if cp.Ext.diffStreak >= n.dsm.migrateAfter {
			out = append(out, p)
		}
	}
	// Sorted, not map order: wish lists feed the grant protocol and its
	// fetch calls, whose fault draws must replay deterministically.
	slices.Sort(out)
	return out
}

// performMigrations runs inside the quiescent window: fetch each granted
// page's authoritative copy from its old home, install it locally, and
// retarget the global home map.
func (n *node) performMigrations(pages []memsim.PageID) {
	d := n.dsm
	n.bumpGen()
	for _, p := range pages {
		oldHome := d.Mem.Home(p)
		if oldHome == n.id || oldHome == memsim.NoHome {
			continue
		}
		clk := d.Clocks[n.id]
		t0 := clk.Now()
		enc := amsg.GetEnc()
		req := enc.U64(uint64(p)).Bytes()
		n.stats.ProtocolMsgs++
		data, err := d.layer.CallErr(simnet.NodeID(n.id), simnet.NodeID(oldHome), kindMigrate, req)
		enc.Free()
		if err != nil {
			// Migration is an optimization, not a correctness requirement:
			// when the old home never saw the request, the current
			// assignment stays valid and the cached copy keeps serving.
			// But if the handler may have run (request delivered, acks
			// lost), the old home already dropped its frame and nobody
			// holds the authoritative copy — that is unrecoverable.
			var ue *amsg.UnreachableError
			if errors.As(err, &ue) && !ue.Executed {
				continue
			}
			panic(fmt.Sprintf("swdsm: node %d: page %d home handover from node %d failed mid-flight: %v",
				n.id, p, oldHome, err))
		}
		hp := n.home.Frame(p)
		hp.Mu.Lock()
		copy(hp.Data, data)
		hp.Mu.Unlock()
		// The handover reply was copied into the home frame; the buffer
		// (the old home's dropped frame, or the zero page) is dead and goes
		// back to the page list.
		pagestore.PutPage(data)
		clk.AdvanceCat(vclock.CatMemory, d.Cost.CPU.PageCopyNs)
		d.Mem.SetHome(p, n.id)
		n.markCkptDirty(p)
		if rec := d.rec; rec != nil && rec.Enabled() {
			rec.Record(n.id, perfmon.EvHomeMigrate, t0, vclock.Since(t0, clk.Now()), uint64(p), uint64(oldHome))
		}
		// The page is now home-resident: retire the cached copy.
		if cp, ok := n.cache[p]; ok {
			n.lru.Remove(cp)
			delete(n.cache, p)
			delete(n.dirty, p)
			cpagePool.Put(cp)
		}
		n.stats.HomeMigrations++
	}
}
