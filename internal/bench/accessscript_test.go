package bench

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"hamster/internal/hybriddsm"
	"hamster/internal/ivy"
	"hamster/internal/memsim"
	"hamster/internal/multidsm"
	"hamster/internal/perfmon"
	"hamster/internal/platform"
	"hamster/internal/smp"
	"hamster/internal/swdsm"
)

// TestAccessScriptIdentity pins what the ten data-path accessors of every
// substrate charge, count, record and return, against goldens recorded
// before each substrate's word, byte-span and block bodies were folded
// into one read routine and one write routine (see
// accessscript_golden_test.go). Two nodes take four alternating turns
// under a host-side token, so every handler charge a turn steals lands on
// a node that is parked, and a turn runs inside one lock scope, so the
// next turn's Acquire invalidates what this one wrote. A turn issues word,
// byte-span (aligned, unaligned, page-crossing, shorter than a word) and
// block (within a page, page-crossing) reads and writes against pages
// homed here, pages homed at the peer that are not cached, cached, cached
// and invalidated, and evicted; it walks one page up to hybriddsm's
// caching threshold with words and crosses it with a byte span, crosses it
// on another page in the middle of a block run, writes through a cached
// copy, drains posted writes at a Fence and at the Release, and
// first-touches a page of its own.
// nodeEvents returns one node's retained events in record order.
func nodeEvents(rec *perfmon.Recorder, node int) []perfmon.Event {
	var out []perfmon.Event
	for _, ev := range rec.AllEvents() {
		if int(ev.Node) == node {
			out = append(out, ev)
		}
	}
	return out
}

// hybridCacheThreshold is hybriddsm's default caching threshold: the
// remote reads of one page within an interval that make a node cache it.
const hybridCacheThreshold = 16

func TestAccessScriptIdentity(t *testing.T) {
	for _, cfg := range accessScriptConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			sub, err := cfg.build()
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			got := runAccessScript(t, sub)
			want := accessScriptGolden[cfg.name]
			if slices.Equal(got, want) {
				return
			}
			var b strings.Builder
			fmt.Fprintf(&b, "\t%q: {\n", cfg.name)
			for i, line := range got {
				mark := ""
				if i >= len(want) || want[i] != line {
					mark = " // differs"
				}
				fmt.Fprintf(&b, "\t\t%q,%s\n", line, mark)
			}
			b.WriteString("\t},\n")
			t.Errorf("observables moved against the recorded golden; got:\n%s", b.String())
		})
	}
}

type accessScriptConfig struct {
	name  string
	build func() (platform.Substrate, error)
}

// accessScriptConfigs lists every substrate, engine and configuration knob
// with its own branch on the data path, at two nodes.
func accessScriptConfigs() []accessScriptConfig {
	const nodes = 2
	hy := func(cfg hybriddsm.Config) func() (platform.Substrate, error) {
		return func() (platform.Substrate, error) {
			cfg.Nodes = nodes
			return hybriddsm.New(cfg)
		}
	}
	sw := func(cfg swdsm.Config) func() (platform.Substrate, error) {
		return func() (platform.Substrate, error) {
			cfg.Nodes = nodes
			return swdsm.New(cfg)
		}
	}
	return []accessScriptConfig{
		{"smp", func() (platform.Substrate, error) { return smp.New(smp.Config{CPUs: nodes}) }},
		{"hybrid", hy(hybriddsm.Config{})},
		{"hybrid-nocache", hy(hybriddsm.Config{CacheThreshold: -1})},
		{"hybrid-sync-writes", hy(hybriddsm.Config{DisablePostedWrites: true})},
		{"hybrid-cache2", hy(hybriddsm.Config{CachePages: 2})},
		{"swdsm-scope", sw(swdsm.Config{})},
		{"swdsm-eager-rc", sw(swdsm.Config{Protocol: swdsm.EagerRC})},
		{"swdsm-cache2", sw(swdsm.Config{CachePages: 2})},
		{"ivy", func() (platform.Substrate, error) { return ivy.New(ivy.Config{Nodes: nodes}) }},
		{"multi-scope", func() (platform.Substrate, error) {
			return multidsm.New(multidsm.Config{
				Nodes:         nodes,
				DefaultEngine: multidsm.SW,
				PolicyRoutes:  map[memsim.Policy]multidsm.Engine{memsim.Block: multidsm.Hybrid},
			})
		}},
	}
}

// accessScriptPages is the size of each of the script's regions.
const accessScriptPages = 8

// runAccessScript drives the script over a fresh two-node substrate and
// renders one line per node: clock, per-category breakdown, every non-zero
// platform.Stats field, a hash of everything the node read, and a hash of
// its event stream.
func runAccessScript(t *testing.T, sub platform.Substrate) []string {
	t.Helper()
	const nodes = 2
	if sub.Nodes() != nodes {
		t.Fatalf("the access script is written for %d nodes, got %d", nodes, sub.Nodes())
	}
	rec := perfmon.New(nodes, 1<<14)
	sub.SetRecorder(rec)
	rec.Enable()

	alloc := func(name string, pol memsim.Policy) memsim.Region {
		r, err := sub.Alloc(accessScriptPages*memsim.PageSize, name, pol, 0)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// Page i of cyc is homed at node i%2; blk's first half is homed at
	// node 0 and multidsm routes it to the SAN engine; ft's pages are homed
	// by whoever touches them first.
	cyc, blk, ft := alloc("cyc", memsim.Cyclic), alloc("blk", memsim.Block), alloc("ft", memsim.FirstTouch)
	lock := sub.NewLock()

	var (
		turn atomic.Int64
		read [nodes]uint64 // FNV-1a over every value a node read, in order
		done = make(chan struct{}, nodes)
	)
	for k := 0; k < nodes; k++ {
		read[k] = 14695981039346656037
		go func(k int) {
			defer func() { done <- struct{}{} }()
			for round := 0; round < 2; round++ {
				for turn.Load() != int64(2*round+k) {
					runtime.Gosched()
				}
				sub.Acquire(k, lock)
				s := accessTurn{sub: sub, k: k, round: round, sum: &read[k]}
				s.region(cyc, k, 1-k, 2)
				s.region(blk, 4*k, 4*(1-k), 1) // pages 0–3 are node 0's, 4–7 node 1's
				s.firstTouch(ft)
				sub.Release(k, lock)
				turn.Add(1)
			}
		}(k)
	}
	for i := 0; i < nodes; i++ {
		<-done
	}

	out := make([]string, nodes)
	for k := 0; k < nodes; k++ {
		bd := sub.Clock(k).Breakdown()
		h := fnv.New64a()
		for _, ev := range nodeEvents(rec, k) {
			fmt.Fprintf(h, "%d %d %d %d %d|", ev.Kind, ev.At, ev.Dur, ev.Arg1, ev.Arg2)
		}
		var stats strings.Builder
		st := reflect.ValueOf(sub.NodeStats(k))
		for i := 0; i < st.NumField(); i++ {
			if v := st.Field(i).Uint(); v != 0 {
				fmt.Fprintf(&stats, " %s=%d", st.Type().Field(i).Name, v)
			}
		}
		out[k] = fmt.Sprintf("clock=%d compute=%d memory=%d protocol=%d network=%d stolen=%d%s read=%016x events=%d:%016x",
			uint64(sub.Clock(k).Now()), bd.Compute, bd.Memory, bd.Protocol, bd.Network, bd.Stolen,
			stats.String(), read[k], rec.Len(k), h.Sum64())
	}
	return out
}

// accessTurn is one node's turn of the script.
type accessTurn struct {
	sub   platform.Substrate
	k     int
	round int
	sum   *uint64
}

func (s accessTurn) saw(v uint64) { *s.sum = (*s.sum ^ v) * 1099511628211 }

// val makes the value written at a site distinct per node, round and site.
func (s accessTurn) val(site int) int64 { return int64(1000*s.round + 100*s.k + site + 1) }

func (s accessTurn) readF64(a memsim.Addr) { s.saw(math.Float64bits(s.sub.ReadF64(s.k, a))) }
func (s accessTurn) readI64(a memsim.Addr) { s.saw(uint64(s.sub.ReadI64(s.k, a))) }

func (s accessTurn) readBytes(a memsim.Addr, n int) {
	buf := make([]byte, n)
	s.sub.ReadBytes(s.k, a, buf)
	for _, b := range buf {
		s.saw(uint64(b))
	}
}

func (s accessTurn) writeBytes(a memsim.Addr, n, site int) {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(int(s.val(site)) + i)
	}
	s.sub.WriteBytes(s.k, a, buf)
}

func (s accessTurn) readF64Block(a memsim.Addr, n int) {
	buf := make([]float64, n)
	s.sub.ReadF64Block(s.k, a, buf)
	for _, v := range buf {
		s.saw(math.Float64bits(v))
	}
}

func (s accessTurn) readI64Block(a memsim.Addr, n int) {
	buf := make([]int64, n)
	s.sub.ReadI64Block(s.k, a, buf)
	for _, v := range buf {
		s.saw(uint64(v))
	}
}

func (s accessTurn) writeF64Block(a memsim.Addr, n, site int) {
	buf := make([]float64, n)
	for i := range buf {
		buf[i] = float64(s.val(site)) + float64(i)/8
	}
	s.sub.WriteF64Block(s.k, a, buf)
}

func (s accessTurn) writeI64Block(a memsim.Addr, n, site int) {
	buf := make([]int64, n)
	for i := range buf {
		buf[i] = s.val(site)<<8 + int64(i)
	}
	s.sub.WriteI64Block(s.k, a, buf)
}

// region runs the turn's accesses over one region whose pages mine,
// mine+step, … are homed at this node and theirs, theirs+step, … at the
// peer; at(first, i, byteOff) addresses the i-th of either.
func (s accessTurn) region(r memsim.Region, mine, theirs, step int) {
	at := func(first, i, byteOff int) memsim.Addr {
		return r.Base + memsim.Addr((first+i*step)*memsim.PageSize+byteOff)
	}
	const w = memsim.WordSize
	k := s.k

	// Words, home page.
	s.sub.WriteF64(k, at(mine, 0, 3*w), float64(s.val(0)))
	s.readF64(at(mine, 0, 3*w))
	s.sub.WriteI64(k, at(mine, 0, 4*w), s.val(1))
	s.readI64(at(mine, 0, 4*w))
	s.readI64(at(mine, 0, (64+2)*w)) // what the peer's last turn wrote here

	// Words, peer's page: uncached read, then write, then reads of what is
	// now cached or written through.
	s.readF64(at(theirs, 0, 3*w))
	s.sub.WriteF64(k, at(theirs, 0, (64+k)*w), float64(s.val(2)))
	s.readF64(at(theirs, 0, (64+k)*w))
	s.sub.WriteI64(k, at(theirs, 0, (64+2)*w), s.val(3))
	s.readI64(at(theirs, 0, (64+2)*w))

	// Byte spans: aligned on a home page, unaligned on a peer's page,
	// shorter than a word, and two that cross a page boundary (home into
	// peer's for the cyclic region).
	s.writeBytes(at(mine, 1, 128), 64, 4)
	s.readBytes(at(mine, 1, 128), 64)
	s.writeBytes(at(theirs, 1, 259+32*k), 21, 5)
	s.readBytes(at(theirs, 1, 259), 64)
	s.writeBytes(at(theirs, 1, 1025+16*k), 5, 6)
	s.readBytes(at(theirs, 1, 1025), 29)
	s.writeBytes(at(mine, 1, memsim.PageSize-20-64*k), 50+64*k, 7)
	s.readBytes(at(mine, 1, memsim.PageSize-100), 200)

	// Walk a peer's page up to hybriddsm's caching threshold with word
	// reads and cross it with a byte span; then read, write through and
	// re-read the cached copy.
	for i := 0; i < hybridCacheThreshold-1; i++ {
		s.readI64(at(theirs, 2, i*w))
	}
	s.readBytes(at(theirs, 2, 515), 30)
	s.readF64(at(theirs, 2, 70*w))
	s.sub.WriteF64(k, at(theirs, 2, (70+k)*w), float64(s.val(8)))
	s.readF64(at(theirs, 2, (70+k)*w))
	s.writeBytes(at(theirs, 2, 2051+32*k), 19, 9)
	s.readBytes(at(theirs, 2, 2048), 80)

	// Blocks: a home run, a peer's-page run short of the caching threshold
	// and one that crosses it mid-way (4 + 6 words read, then 32), runs
	// that cross a page boundary, and block writes to home and peer's
	// pages.
	s.writeF64Block(at(mine, 2, 200*w), 24, 10)
	s.readF64Block(at(mine, 2, 192*w), 40)
	s.readI64Block(at(theirs, 3, 40*w), 4)
	for i := 0; i < 6; i++ {
		s.readF64(at(theirs, 3, i*w))
	}
	s.readF64Block(at(theirs, 3, 16*w), 32)
	s.readI64Block(at(theirs, 3, 100*w), 8)
	s.writeI64Block(at(theirs, 3, (300+16*k)*w), 12, 11)
	s.readI64Block(at(theirs, 3, 296*w), 40)
	s.writeF64Block(at(mine, 2, memsim.PageSize-(6+8*k)*w), 20, 12)
	s.readF64Block(at(mine, 2, memsim.PageSize-16*w), 48)
	// A third page crosses the threshold on a word read: with a two-page
	// cache the install evicts.
	for i := 0; i < hybridCacheThreshold; i++ {
		s.readF64(at(theirs, 1, (8+i)*w))
	}
	s.sub.Fence(k) // drains posted writes, flushes diffs, drops copies

	// After the fence: the peer's pages again, through every accessor
	// (pages the fence or a small cache dropped fault back in).
	s.readF64(at(theirs, 0, 3*w))
	s.readBytes(at(theirs, 1, 259), 64)
	s.readI64Block(at(theirs, 3, 296*w), 40)
	s.sub.WriteI64(k, at(theirs, 2, (80+k)*w), s.val(13))
	s.writeI64Block(at(theirs, 0, (400+8*k)*w), 6, 14)
	s.readF64(at(theirs, 2, 70*w))
}

// firstTouch homes one fresh page at this node per accessor kind and
// reads one the peer homed.
func (s accessTurn) firstTouch(r memsim.Region) {
	page := func(i, word int) memsim.Addr {
		return r.Base + memsim.Addr(i*memsim.PageSize+word*memsim.WordSize)
	}
	mine := 4*s.round + 2*s.k
	s.sub.WriteF64(s.k, page(mine, 5), float64(s.val(15)))
	s.writeBytes(page(mine+1, 9)+3, 17, 16)
	if s.round+s.k > 0 {
		prev := 4*s.round + 2*s.k - 2 // the page the previous turn homed at the peer
		s.readF64(page(prev, 5))
		s.readBytes(page(prev+1, 9), 24)
	}
	s.readF64Block(page(mine, 0), 16)
}
