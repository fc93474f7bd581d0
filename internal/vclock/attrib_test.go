package vclock

import (
	"sync"
	"testing"
)

// The category buckets are the clock: their sum plus the stolen charges
// is Now(), and how a charge is tagged must never change Now().

func TestAdvanceCatSumsToLocal(t *testing.T) {
	var c Clock
	c.AdvanceCat(CatCompute, 100)
	c.AdvanceCat(CatMemory, 30)
	c.AdvanceCat(CatProtocol, 7)
	c.AdvanceCat(CatNetwork, 12)
	c.Advance(5) // untagged defaults to compute
	c.Steal(0, 40)

	bd := c.Breakdown()
	if bd.Compute != 105 || bd.Memory != 30 || bd.Protocol != 7 || bd.Network != 12 || bd.Stolen != 40 {
		t.Fatalf("unexpected breakdown: %+v", bd)
	}
	if got, want := bd.Total(), Duration(c.Now()); got != want {
		t.Fatalf("Total() = %d, Now() = %d", got, want)
	}
}

func TestAdvanceToCatAttributesDelta(t *testing.T) {
	var c Clock
	c.AdvanceCat(CatCompute, 50)
	c.AdvanceToCat(CatNetwork, 80) // applies a 30ns jump
	if got := c.Breakdown().Network; got != 30 {
		t.Fatalf("network bucket = %d, want 30", got)
	}
	c.AdvanceToCat(CatNetwork, 10) // no-op: clock never moves backwards
	if got := c.Breakdown().Network; got != 30 {
		t.Fatalf("network bucket after no-op = %d, want 30", got)
	}
	if got, want := c.Breakdown().Total(), Duration(c.Now()); got != want {
		t.Fatalf("Total() = %d, Now() = %d", got, want)
	}
}

// AdvanceToCat must also account for stolen time: the applied local delta
// is Now-relative, so the bucket gets exactly what local gained.
func TestAdvanceToCatWithStolenTime(t *testing.T) {
	var c Clock
	c.Steal(0, 100)
	c.AdvanceToCat(CatProtocol, 60) // already past: no-op
	if got := c.Breakdown().Protocol; got != 0 {
		t.Fatalf("protocol bucket = %d, want 0", got)
	}
	c.AdvanceToCat(CatProtocol, 150) // local must reach 50
	bd := c.Breakdown()
	if bd.Protocol != 50 {
		t.Fatalf("protocol bucket = %d, want 50", bd.Protocol)
	}
	if got, want := bd.Total(), Duration(c.Now()); got != want {
		t.Fatalf("Total() = %d, Now() = %d", got, want)
	}
}

func TestAttributionConcurrentSum(t *testing.T) {
	var c Clock
	const (
		workers = 8
		perW    = 1000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				switch i % 4 {
				case 0:
					c.AdvanceCat(CatCompute, 3)
				case 1:
					c.AdvanceCat(CatMemory, 2)
				case 2:
					c.AdvanceCat(CatNetwork, 1)
				default:
					c.Steal(0, 1)
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := c.Breakdown().Total(), Duration(c.Now()); got != want {
		t.Fatalf("Total() = %d, Now() = %d", got, want)
	}
}

// TestAdvanceToCatRacesOtherBucket: AdvanceToCat swaps only its own
// bucket, so a charge landing in another bucket meanwhile must end up
// either absorbed by the jump (it came first) or kept on top of it.
func TestAdvanceToCatRacesOtherBucket(t *testing.T) {
	const a, d, target = 100, 50, 120
	for i := 0; i < 2000; i++ {
		var c Clock
		c.AdvanceCat(CatCompute, a)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); c.AdvanceCat(CatMemory, d) }()
		go func() { defer wg.Done(); c.AdvanceToCat(CatProtocol, target) }()
		wg.Wait()
		now, bd := c.Now(), c.Breakdown()
		if now != a+d && now != target+d { // max(a+d, target) or target+d
			t.Fatalf("Now() = %d, want %d (charge first) or %d (jump first)", now, a+d, target+d)
		}
		if bd.Memory != d || bd.Compute != a {
			t.Fatalf("the jump disturbed another bucket: %+v", bd)
		}
		if Duration(now) != bd.Total() {
			t.Fatalf("Total() = %d, Now() = %d", bd.Total(), now)
		}
	}
}

// TestRestoreRoundTrip: Restore installs a breakdown exactly, later
// charges accumulate on top of it, and Reset returns to zero.
func TestRestoreRoundTrip(t *testing.T) {
	want := Breakdown{Compute: 11, Memory: 22, Protocol: 33, Network: 44, Stolen: 55}
	var c Clock
	c.AdvanceCat(CatNetwork, 999) // state that Restore must overwrite
	c.Restore(want)
	if got := c.Breakdown(); got != want {
		t.Fatalf("Breakdown() = %+v after Restore(%+v)", got, want)
	}
	if got := c.Now(); Duration(got) != want.Total() {
		t.Fatalf("Now() = %d, want %d", got, want.Total())
	}
	c.AdvanceToCat(CatProtocol, Time(want.Total())+5)
	if got := c.Breakdown().Protocol; got != want.Protocol+5 {
		t.Fatalf("protocol bucket = %d after a 5ns jump, want %d", got, want.Protocol+5)
	}
	c.reset()
	if c.Now() != 0 || c.Breakdown() != (Breakdown{}) {
		t.Fatalf("after Reset: Now() = %d, %+v", c.Now(), c.Breakdown())
	}
}

func TestResetClearsAttribution(t *testing.T) {
	var c Clock
	c.AdvanceCat(CatMemory, 10)
	c.Steal(0, 5)
	c.reset()
	if c.Now() != 0 {
		t.Fatalf("Now() = %d after Reset", c.Now())
	}
	if bd := c.Breakdown(); bd.Total() != 0 {
		t.Fatalf("breakdown after Reset: %+v", bd)
	}
}
