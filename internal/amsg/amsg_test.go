package amsg

import (
	"bytes"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"hamster/internal/machine"
	"hamster/internal/simnet"
	"hamster/internal/vclock"
)

func testLayer(nodes int) (*Layer, []*vclock.Clock) {
	clocks := make([]*vclock.Clock, nodes)
	for i := range clocks {
		clocks[i] = &vclock.Clock{}
	}
	link := machine.Link{LatencyNs: 1000, NsPerByte: 10, SendSWNs: 100, RecvSWNs: 200, HandlerNs: 50}
	net := simnet.New(link, clocks)
	return New(net, link), clocks
}

func TestCallRoundTrip(t *testing.T) {
	l, clocks := testLayer(2)
	const kind Kind = 1
	l.Register(1, kind, func(from NodeID, req []byte) ([]byte, vclock.Duration) {
		if from != 0 {
			t.Errorf("handler saw from=%d, want 0", from)
		}
		return append([]byte("re:"), req...), 25
	})
	resp := l.Call(0, 1, kind, []byte("ping"))
	if string(resp) != "re:ping" {
		t.Fatalf("resp = %q", resp)
	}
	// Caller: send(100) + lat(1000) + 4*10 + handler(50+25) + lat(1000) + 7*10 + recv(200)
	want := vclock.Time(100 + 1000 + 40 + 75 + 1000 + 70 + 200)
	if got := clocks[0].Now(); got != want {
		t.Fatalf("caller clock = %d, want %d", got, want)
	}
	// Target charged stolen handler cycles only.
	if got := clocks[1].Breakdown().Stolen; got != 75 {
		t.Fatalf("target stolen = %d, want 75", got)
	}
}

func TestLocalCallBypassesNetwork(t *testing.T) {
	l, clocks := testLayer(2)
	const kind Kind = 2
	l.Register(0, kind, func(NodeID, []byte) ([]byte, vclock.Duration) {
		return []byte("ok"), 10
	})
	resp := l.Call(0, 0, kind, nil)
	if string(resp) != "ok" {
		t.Fatalf("resp = %q", resp)
	}
	if got := clocks[0].Now(); got != vclock.Time(LocalCallNs)+10 {
		t.Fatalf("caller clock = %d, want %d", got, uint64(LocalCallNs)+10)
	}
	if clocks[0].Breakdown().Stolen != 0 {
		t.Fatal("local call must not steal")
	}
}

func TestUnregisteredKindPanics(t *testing.T) {
	l, _ := testLayer(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unregistered kind")
		}
	}()
	l.Call(0, 1, 99, nil)
}

func TestStatsCounting(t *testing.T) {
	l, _ := testLayer(2)
	const kind Kind = 5
	l.Register(1, kind, func(NodeID, []byte) ([]byte, vclock.Duration) {
		return make([]byte, 8), 0
	})
	l.Call(0, 1, kind, make([]byte, 16))
	l.Call(0, 1, kind, make([]byte, 16))
	calls, _, reqB, rspB := l.Stats(0).Snapshot()
	if calls != 2 || reqB != 32 || rspB != 16 {
		t.Fatalf("caller stats = %d calls, %d req, %d rsp", calls, reqB, rspB)
	}
	_, serviced, _, _ := l.Stats(1).Snapshot()
	if serviced != 2 {
		t.Fatalf("target serviced = %d, want 2", serviced)
	}
}

func TestConcurrentCallsSameTarget(t *testing.T) {
	l, clocks := testLayer(3)
	const kind Kind = 6
	var mu sync.Mutex
	counter := 0
	l.Register(2, kind, func(NodeID, []byte) ([]byte, vclock.Duration) {
		mu.Lock()
		counter++
		mu.Unlock()
		return nil, 0
	})
	var wg sync.WaitGroup
	const per = 100
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Call(NodeID(c), 2, kind, nil)
			}
		}(c)
	}
	wg.Wait()
	if counter != 2*per {
		t.Fatalf("handler ran %d times, want %d", counter, 2*per)
	}
	if clocks[2].Breakdown().Stolen == 0 {
		t.Fatal("target must have absorbed stolen cycles")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	e := GetEnc()
	defer e.Free()
	e.U32(70000).U64(1 << 40).Blob([]byte("abc")).U64s([]uint64{9, 1 << 63})
	d := MakeDec(e.Bytes())
	if d.U32() != 70000 || d.U64() != 1<<40 {
		t.Fatal("unsigned round trip failed")
	}
	if !bytes.Equal(d.Blob(), []byte("abc")) {
		t.Fatal("Blob round trip failed")
	}
	if got := d.U64s(); len(got) != 2 || got[0] != 9 || got[1] != 1<<63 {
		t.Fatalf("U64s round trip = %v", got)
	}
	if d.off != len(d.buf) {
		t.Fatalf("%d bytes left, want 0", len(d.buf)-d.off)
	}
}

// Property: any sequence of (u64, u64 list, blob) triples survives a round
// trip.
func TestCodecProperty(t *testing.T) {
	f := func(us []uint64, lists [][]uint64, blobs [][]byte) bool {
		e := GetEnc()
		defer e.Free()
		for _, u := range us {
			e.U64(u)
		}
		for _, l := range lists {
			e.U64s(l)
		}
		for _, b := range blobs {
			e.Blob(b)
		}
		d := MakeDec(e.Bytes())
		for _, u := range us {
			if d.U64() != u {
				return false
			}
		}
		for _, l := range lists {
			if !slices.Equal(d.U64s(), l) {
				return false
			}
		}
		for _, b := range blobs {
			if !bytes.Equal(d.Blob(), b) {
				return false
			}
		}
		return d.off == len(d.buf)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCall(b *testing.B) {
	l, _ := testLayer(2)
	const kind Kind = 7
	l.Register(1, kind, func(NodeID, []byte) ([]byte, vclock.Duration) { return nil, 0 })
	for i := 0; i < b.N; i++ {
		l.Call(0, 1, kind, nil)
	}
}
