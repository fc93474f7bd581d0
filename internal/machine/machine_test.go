package machine

import (
	"testing"
	"testing/quick"

	"hamster/internal/vclock"
)

func TestDefaultSane(t *testing.T) {
	p := Default()
	if p.CPU.FlopNs == 0 || p.CPU.AccessNs == 0 {
		t.Fatal("CPU costs must be non-zero")
	}
	if p.Ethernet.LatencyNs <= p.SAN.SyncMsgNs {
		t.Fatal("Ethernet must be slower than SAN sync — the whole point of hybrid DSM")
	}
	if p.SAN.RemoteReadNs <= p.SAN.RemoteWriteNs {
		t.Fatal("SCI posted writes must be cheaper than PIO reads")
	}
	if p.Bus.CachePages <= 0 {
		t.Fatal("cache must hold at least one page")
	}
}

func TestMsgCostComposition(t *testing.T) {
	l := Link{LatencyNs: 100, NsPerByte: 2, SendSWNs: 10, RecvSWNs: 20, HandlerNs: 5}
	if got := l.MsgCost(0); got != 130 {
		t.Fatalf("MsgCost(0) = %d, want 130", got)
	}
	if got := l.MsgCost(50); got != 230 {
		t.Fatalf("MsgCost(50) = %d, want 230", got)
	}
	if got := l.rttCost(0, 8); got != 130+5+130+16 {
		t.Fatalf("rttCost = %d, want %d", got, 130+5+130+16)
	}
}

func TestMsgCostMonotonicInSize(t *testing.T) {
	l := Default().Ethernet
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return l.MsgCost(x) <= l.MsgCost(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEffectiveDRAMContention(t *testing.T) {
	b := Bus{DRAMAccessNs: 100, ContentionPerCPU: 70}
	if got := b.EffectiveDRAM(1); got != 100 {
		t.Fatalf("1 CPU: %d, want 100", got)
	}
	if got := b.EffectiveDRAM(2); got != 170 {
		t.Fatalf("2 CPUs: %d, want 170", got)
	}
	if got := b.EffectiveDRAM(0); got != 100 {
		t.Fatalf("0 CPUs clamps to 1: %d, want 100", got)
	}
}

func TestEffectiveDRAMMonotonicInCPUs(t *testing.T) {
	b := Default().Bus
	f := func(n uint8) bool {
		return b.EffectiveDRAM(int(n)) <= b.EffectiveDRAM(int(n)+1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWithMessagingSeparateIsSlower(t *testing.T) {
	base := Default()
	sep := base.WithMessaging(Separate)
	coal := base.WithMessaging(Coalesced)
	if coal.Ethernet != base.Ethernet {
		t.Fatal("Coalesced must not change the link")
	}
	if sep.Ethernet.MsgCost(100) <= coal.Ethernet.MsgCost(100) {
		t.Fatal("Separate stacks must cost more per message")
	}
	// Original must be unmodified (value semantics).
	if base.Ethernet.SendSWNs != Default().Ethernet.SendSWNs {
		t.Fatal("WithMessaging mutated its receiver")
	}
}

func TestPageFaultVsRemoteReadTradeoff(t *testing.T) {
	// The cost model must reproduce the paper's central trade-off: a
	// SW-DSM page fault over Ethernet costs hundreds of µs but amortizes
	// over a whole page, while SAN remote reads are µs-scale per word.
	p := Default()
	fault := p.Ethernet.rttCost(64, PageSize)
	if fault < 300_000 || fault > 1_000_000 {
		t.Fatalf("SW-DSM page fault cost %v outside plausible 0.3–1 ms", fault)
	}
	wordsPerPage := PageSize / WordSize
	sanFullPage := vclock.Duration(wordsPerPage) * p.SAN.RemoteReadNs
	if sanFullPage < fault/4 {
		t.Fatalf("dense remote reads (%v) should not be dramatically cheaper than a page fault (%v)", sanFullPage, fault)
	}
	if p.SAN.PageFetchNs >= fault/4 {
		t.Fatalf("SAN page fetch (%v) must be far cheaper than an Ethernet fault (%v)", p.SAN.PageFetchNs, fault)
	}
}

func TestPageCacheDirectMapped(t *testing.T) {
	c := NewPageCache(4)
	if c.Touch(0) {
		t.Fatal("first touch must miss")
	}
	if !c.Touch(0) {
		t.Fatal("second touch must hit")
	}
	// Page 4 maps to the same slot as page 0: conflict.
	if c.Touch(4) {
		t.Fatal("conflicting page must miss")
	}
	if c.Touch(0) {
		t.Fatal("page 0 must have been evicted by the conflict")
	}
	// Distinct slots coexist.
	c.Touch(1)
	c.Touch(2)
	if !c.Touch(1) || !c.Touch(2) {
		t.Fatal("non-conflicting pages must stay resident")
	}
}

func TestPageCacheZeroSlots(t *testing.T) {
	c := NewPageCache(0) // clamps to one slot
	c.Touch(1)
	if !c.Touch(1) {
		t.Fatal("single-slot cache must still hit")
	}
}

func TestPageCacheWorkingSetProperty(t *testing.T) {
	// Property: a working set no larger than the cache with distinct
	// slots never misses after the first sweep.
	f := func(slots uint8) bool {
		n := int(slots%16) + 1
		c := NewPageCache(n)
		for p := 0; p < n; p++ {
			c.Touch(uint64(p))
		}
		for p := 0; p < n; p++ {
			if !c.Touch(uint64(p)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMissCost(t *testing.T) {
	b := Bus{DRAMAccessNs: 123}
	if b.MissCost() != 123 {
		t.Fatal("MissCost must be the private-bus DRAM cost")
	}
}

// rttCost returns the cost of a minimal request/response exchange carrying
// reqSize and respSize payload bytes.
func (l Link) rttCost(reqSize, respSize int) vclock.Duration {
	return l.MsgCost(reqSize) + l.HandlerNs + l.MsgCost(respSize)
}
