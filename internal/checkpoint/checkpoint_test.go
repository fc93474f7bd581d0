package checkpoint

import (
	"bytes"
	"testing"

	"hamster/internal/memsim"
	"hamster/internal/vclock"
)

func sampleSnapshot(seq uint64, incremental bool) *Snapshot {
	full := make([]byte, memsim.PageSize)
	for i := range full {
		full[i] = byte(i * int(seq))
	}
	sn := &Snapshot{
		Seq:          seq,
		BarrierCount: seq * 2,
		Incremental:  incremental,
		Space: memsim.SpaceSnapshot{
			Nodes: 2,
			Next:  memsim.Addr(3 * memsim.PageSize),
			Regions: []memsim.Region{
				{Base: 0, Size: 2 * memsim.PageSize, Name: "grid", Policy: memsim.Block},
				{Base: memsim.Addr(2 * memsim.PageSize), Size: memsim.PageSize, Name: "sum", Policy: memsim.Fixed, FixedNode: 1},
			},
			Homes: map[memsim.PageID]int{0: 0, 1: 1, 2: 1},
		},
		Locks: 3,
		Nodes: []NodeState{
			{
				Epoch: seq,
				Clock: vclock.Breakdown{Compute: 100, Memory: 20, Protocol: 5, Network: 7, Stolen: 2},
				Pages: []PageCapture{{Page: 0, Full: full}},
				App:   [][]byte{{1, 2, 3}},
			},
			{
				Epoch:  seq,
				Clock:  vclock.Breakdown{Compute: 90, Memory: 25},
				Pages:  []PageCapture{{Page: 1, Full: append([]byte(nil), full...)}, {Page: 2, Diff: nil}},
				Cached: []memsim.PageID{0},
			},
		},
	}
	if incremental {
		sn.BaseSeq = seq - 1
		// One run: uint16 off=4, uint16 len=4, payload 9,9,9,9.
		sn.Nodes[0].Pages = []PageCapture{{Page: 0, Diff: []byte{4, 0, 4, 0, 9, 9, 9, 9}}}
		sn.Nodes[1].Pages = nil
	}
	return sn
}

func TestCodecRoundTrip(t *testing.T) {
	for _, incremental := range []bool{false, true} {
		sn := sampleSnapshot(3, incremental)
		raw := Encode(sn)
		got, err := decode(raw)
		if err != nil {
			t.Fatalf("decode(incremental=%v): %v", incremental, err)
		}
		raw2 := Encode(got)
		if !bytes.Equal(raw, raw2) {
			t.Fatalf("re-encode mismatch (incremental=%v): %d vs %d bytes", incremental, len(raw), len(raw2))
		}
		if got.Seq != sn.Seq || got.BarrierCount != sn.BarrierCount || got.Locks != sn.Locks {
			t.Fatalf("header mismatch: got %+v", got)
		}
		if got.Space.Homes[2] != 1 || len(got.Space.Regions) != 2 || got.Space.Regions[1].FixedNode != 1 {
			t.Fatalf("space mismatch: %+v", got.Space)
		}
	}
}

func TestCodecRejectsCorruptInput(t *testing.T) {
	raw := Encode(sampleSnapshot(1, false))
	if _, err := decode([]byte("NOTACKPT")); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Every truncation point must error, never panic or misparse.
	for _, cut := range []int{len(magic), len(magic) + 4, len(raw) / 2, len(raw) - 1} {
		if _, err := decode(raw[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := decode(append(append([]byte(nil), raw...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// A corrupt huge count must fail the remaining-bytes check instead of
	// allocating.
	bad := append([]byte(nil), raw...)
	off := len(magic) + 8 + 8 + 1 + 8 + 8 + 8 // region count position
	bad[off] = 0xff
	bad[off+1] = 0xff
	bad[off+2] = 0xff
	bad[off+3] = 0x7f
	if _, err := decode(bad); err == nil {
		t.Fatal("inflated count accepted")
	}
}

func TestMemorySinkNeverOrphansDeltaChain(t *testing.T) {
	s := NewMemorySink(2)
	// full(1) then deltas 2..5: nothing may be evicted — dropping the full
	// would orphan every delta.
	s.Append(sampleSnapshot(1, false))
	for seq := uint64(2); seq <= 5; seq++ {
		sn := sampleSnapshot(seq, true)
		s.Append(sn)
	}
	if got := len(s.Chain()); got != 5 {
		t.Fatalf("ring dropped the anchor: %d snapshots retained", got)
	}
	if _, err := Materialize(s.Chain()); err != nil {
		t.Fatalf("retained chain does not materialize: %v", err)
	}
	// A new full makes everything older evictable down to the keep bound.
	s.Append(sampleSnapshot(6, false))
	chain := s.Chain()
	if len(chain) != 2 || chain[0].Seq != 5 || chain[1].Seq != 6 {
		t.Fatalf("ring kept %d snapshots, first seq %d", len(chain), chain[0].Seq)
	}
	if _, err := Materialize(chain); err != nil {
		t.Fatalf("trimmed chain does not materialize: %v", err)
	}
}

func TestMaterializeAppliesDeltaChain(t *testing.T) {
	full := sampleSnapshot(1, false)
	delta := sampleSnapshot(2, true)
	rs, err := Materialize([]*Snapshot{full, delta})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Seq != 2 || rs.BarrierCount != 4 {
		t.Fatalf("restore set at wrong epoch: %+v", rs)
	}
	// delta's node-0 diff writes 9,9,9,9 at offset 4 of page 0.
	img := rs.Nodes[0].Pages[0]
	if img == nil {
		t.Fatal("page 0 missing from materialized image")
	}
	want := append([]byte(nil), full.Nodes[0].Pages[0].Full...)
	copy(want[4:], []byte{9, 9, 9, 9})
	if !bytes.Equal(img, want) {
		t.Fatal("delta not applied onto full image")
	}
	// node 1 untouched by the delta: full image survives.
	if !bytes.Equal(rs.Nodes[1].Pages[1], full.Nodes[1].Pages[0].Full) {
		t.Fatal("unmodified page lost")
	}

	if _, err := Materialize([]*Snapshot{delta}); err == nil {
		t.Fatal("delta-only chain accepted")
	}
	gap := sampleSnapshot(4, true)
	gap.BaseSeq = 3
	if _, err := Materialize([]*Snapshot{full, gap}); err == nil {
		t.Fatal("non-contiguous chain accepted")
	}
	if rs, err := Materialize(nil); rs != nil || err != nil {
		t.Fatal("empty chain should be (nil, nil)")
	}
}
