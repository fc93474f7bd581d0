package hybriddsm

import (
	"bytes"
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hamster/internal/memsim"
)

// A home frame takes no lock: the owner's accesses and its peers' PIO
// loads and stores, posted or synchronous, reach it through memsim's
// atomic word helpers. The hammer runs every kind of access to one page
// at once; run it under -race, where a plain access to the frame shows
// as a race, and without it, where a torn word shows as a value nobody
// stored.

const hammerRounds = 2_000

// pattern is round i's word: eight equal bytes, so a word made of two
// stores' bytes cannot pass for either.
func pattern(i int) int64 { return int64(0x0101010101010101 * uint64(1+i%255)) }

// stored reports whether v is a word some store wrote: zero (the page as
// allocated) or eight equal bytes.
func stored(v int64) bool { return uint64(v) == 0x0101010101010101*(uint64(v)&0xff) }

// TestHomeFrameHammer: node 1 posts word stores into the page's first 64
// words and block stores over the next 64; node 2 makes PIO word reads,
// fencing before its read count reaches the caching threshold; node 3
// reads 64 words in one block, which crosses the threshold into install
// and finishes from the new copy, then fences. The home, node 0, reads
// words, blocks and byte spans of both halves. Every word anyone reads
// must be whole, and once node 1 is done the home reads its last stores.
// It runs with posted and with synchronous remote stores.
func TestHomeFrameHammer(t *testing.T) {
	for _, posted := range []bool{true, false} {
		d, err := New(Config{Nodes: 4, DisablePostedWrites: !posted})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		r, err := d.Alloc(memsim.PageSize, "x", memsim.Fixed, 0)
		if err != nil {
			t.Fatal(err)
		}
		words, block := r.Base, r.Base+64*memsim.WordSize
		check := func(node int, what string, vs ...int64) bool {
			for _, v := range vs {
				if !stored(v) {
					t.Errorf("posted=%v: node %d's %s read %#x: nobody stored that", posted, node, what, uint64(v))
					return false
				}
			}
			return true
		}
		var wg sync.WaitGroup
		var done atomic.Bool
		wg.Add(4)
		go func() {
			defer wg.Done()
			defer done.Store(true)
			vs := make([]int64, 64)
			for i := 0; i < hammerRounds; i++ {
				d.WriteI64(1, words+memsim.Addr(memsim.WordSize*(i%64)), pattern(i))
				for k := range vs {
					vs[k] = pattern(i)
				}
				d.WriteI64Block(1, block, vs)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; !done.Load(); i++ {
				if i%(defaultCacheThreshold-1) == 0 {
					d.Fence(2)
				}
				a := words + memsim.Addr(memsim.WordSize*(i%128))
				if !check(2, "PIO read", d.ReadI64(2, a)) {
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			vs := make([]int64, 64)
			for i := 0; !done.Load(); i++ {
				d.ReadI64Block(3, r.Base+memsim.Addr(memsim.WordSize*(i%64)), vs)
				d.Fence(3)
				if !check(3, "block read through install", vs...) {
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			vs, span := make([]int64, 64), make([]byte, 16)
			for i := 0; !done.Load(); i++ {
				a := words + memsim.Addr(memsim.WordSize*(i%128))
				d.ReadI64Block(0, block, vs)
				d.ReadBytes(0, a, span)
				ok := check(0, "word read", d.ReadI64(0, a), int64(math.Float64bits(d.ReadF64(0, a)))) &&
					check(0, "block read", vs...) &&
					check(0, "span read", int64(binary.LittleEndian.Uint64(span)), int64(binary.LittleEndian.Uint64(span[8:])))
				if !ok {
					return
				}
			}
		}()
		wg.Wait()
		vs := make([]int64, 128)
		d.ReadI64Block(0, r.Base, vs)
		for k, v := range vs {
			last := hammerRounds - 1
			if k < 64 {
				last -= (last - k) % 64
			}
			if v != pattern(last) {
				t.Fatalf("posted=%v: after node 1's last store the home reads word %d = %#x, want %#x", posted, k, uint64(v), uint64(pattern(last)))
			}
		}
	}
}

// TestHomeFrameTakesNoLock: with every home frame's mutex held elsewhere,
// all ten accessors still finish on a page homed at the accessing node
// and on one homed at its peer, and the reads return what the writes
// stored. The remote block read is a whole page, so it crosses the
// caching threshold into install.
func TestHomeFrameTakesNoLock(t *testing.T) {
	d := newDSM(t, 2)
	r, err := d.Alloc(2*memsim.PageSize, "xy", memsim.Cyclic, 0)
	if err != nil {
		t.Fatal(err)
	}
	pages := []memsim.Addr{r.Base, r.Base + memsim.PageSize} // homed at nodes 0 and 1
	for h, a := range pages {
		d.WriteI64(0, a, 1)
		d.nodes[h].home.Frame(memsim.PageOf(a)).Mu.Lock()
	}
	unlock := func() {
		for h, a := range pages {
			d.nodes[h].home.Frame(memsim.PageOf(a)).Mu.Unlock()
		}
	}
	fail := make(chan string, 1)
	go func() {
		defer close(fail)
		fs, is := make([]float64, memsim.PageSize/memsim.WordSize), make([]int64, memsim.PageSize/memsim.WordSize)
		span := make([]byte, 16)
		for _, a := range pages {
			d.WriteF64(0, a, 2.5)
			d.WriteI64(0, a+8, 7)
			d.WriteBytes(0, a+17, []byte("fourteen bytes"))
			d.WriteF64Block(0, a+32, []float64{1, 2})
			d.WriteI64Block(0, a+48, []int64{3, 4})
			d.ReadF64Block(0, a, fs)
			d.ReadI64Block(0, a, is)
			d.ReadBytes(0, a+17, span[:14])
			if d.ReadF64(0, a) != 2.5 || d.ReadI64(0, a+8) != 7 || string(span[:14]) != "fourteen bytes" ||
				fs[0] != 2.5 || fs[4] != 1 || fs[5] != 2 || is[1] != 7 || is[6] != 3 || is[7] != 4 {
				fail <- "a read did not return what the writes stored"
				return
			}
		}
	}()
	select {
	case msg, ok := <-fail:
		unlock()
		if ok {
			t.Fatal(msg)
		}
	case <-time.After(5 * time.Second):
		unlock()
		<-fail
		t.Fatal("an access waited for a home frame's mutex")
	}
}

// TestSpansAndUnalignedWordsMatchAModel: byte spans at offsets 0-15 of
// lengths 0-24, at the start of a page and across a page boundary, and
// words at unaligned offsets, written by the page's home and by its peer
// and read back by both, leave the same bytes as a plain byte model. A
// threshold of two readings makes the reads mix PIO loads, install and
// cached copies; a reader fences after another node's write.
func TestSpansAndUnalignedWordsMatchAModel(t *testing.T) {
	d, err := New(Config{Nodes: 2, CacheThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	r, err := d.Alloc(2*memsim.PageSize, "xy", memsim.Cyclic, 0)
	if err != nil {
		t.Fatal(err)
	}
	model := make([]byte, 2*memsim.PageSize)
	step := 0
	readBack := func(writer, off, n int, what string) {
		for node := 0; node < 2; node++ {
			if node != writer {
				d.Fence(node)
			}
			got := make([]byte, n)
			d.ReadBytes(node, r.Base+memsim.Addr(off), got)
			if !bytes.Equal(got, model[off:off+n]) {
				t.Fatalf("%s at %d (%d bytes) by node %d: node %d reads %x, want %x", what, off, n, writer, node, got, model[off:off+n])
			}
			if n == memsim.WordSize && memsim.PageOf(memsim.Addr(off)) == memsim.PageOf(memsim.Addr(off+n-1)) {
				want := binary.LittleEndian.Uint64(model[off:])
				if gotI, gotF := d.ReadI64(node, r.Base+memsim.Addr(off)), d.ReadF64(node, r.Base+memsim.Addr(off)); uint64(gotI) != want || math.Float64bits(gotF) != want {
					t.Fatalf("%s at %d by node %d: node %d's ReadI64/ReadF64 = %#x/%#x, want %#x", what, off, writer, node, uint64(gotI), math.Float64bits(gotF), want)
				}
			}
		}
	}
	for _, base := range []int{0, memsim.PageSize - 12} {
		for off := base; off < base+16; off++ {
			for n := 0; n <= 24; n++ {
				step++
				writer := step % 2
				data := make([]byte, n)
				for i := range data {
					data[i] = byte(step*13 + i)
				}
				d.WriteBytes(writer, r.Base+memsim.Addr(off), data)
				copy(model[off:], data)
				readBack(writer, off, n, "WriteBytes")
			}
			if memsim.PageOf(memsim.Addr(off)) != memsim.PageOf(memsim.Addr(off+memsim.WordSize-1)) {
				continue // a word may not cross a page
			}
			step++
			writer, v := step%2, int64(step)*-0x0102030405060709
			if step%4 < 2 {
				d.WriteI64(writer, r.Base+memsim.Addr(off), v)
			} else {
				d.WriteF64(writer, r.Base+memsim.Addr(off), math.Float64frombits(uint64(v)))
			}
			binary.LittleEndian.PutUint64(model[off:], uint64(v))
			readBack(writer, off, memsim.WordSize, "a word write")
		}
	}
	readBack(-1, 0, len(model), "every write")
}
