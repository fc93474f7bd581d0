package memsim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
)

// The atomic helpers must move exactly the bytes the plain codecs and
// copy move. Each test runs them on one frame and the plain forms on a
// model page and compares both.

func patterned() (frame, model []byte) {
	frame, model = make([]byte, PageSize), make([]byte, PageSize)
	for i := range frame {
		frame[i] = byte(i*7 + 3)
	}
	copy(model, frame)
	return frame, model
}

// wordOffsets are the aligned and unaligned offsets at both ends of a
// page that a whole word fits at.
func wordOffsets() (offs []int) {
	for off := 0; off < 16; off++ {
		offs = append(offs, off, PageSize-WordSize-off)
	}
	return offs
}

func TestAtomicWordsMatchCodecs(t *testing.T) {
	frame, model := patterned()
	for i, off := range wordOffsets() {
		f, n := 1.5*float64(i)-7, int64(i)*-0x0102030405060708
		StoreF64(frame, off, f)
		PutF64(model, off, f)
		if got := LoadF64(frame, off); got != f || got != GetF64(model, off) {
			t.Fatalf("F64 at %d: stored %v, loaded %v", off, f, got)
		}
		StoreI64(frame, off, n)
		PutI64(model, off, n)
		if got := LoadI64(frame, off); got != n || got != GetI64(model, off) {
			t.Fatalf("I64 at %d: stored %d, loaded %d", off, n, got)
		}
		if !bytes.Equal(frame, model) {
			t.Fatalf("after the stores at %d the frame differs from the codecs' page", off)
		}
	}
}

func TestAtomicBytesMatchCopy(t *testing.T) {
	frame, model := patterned()
	var offs []int
	for off := 0; off < 16; off++ {
		offs = append(offs, off, PageSize-24-off)
	}
	for _, off := range offs {
		for n := 0; n <= 24; n++ {
			src := make([]byte, n)
			for i := range src {
				src[i] = byte(off*31 + n*5 + i)
			}
			StoreBytes(frame, off, src)
			copy(model[off:], src)
			if !bytes.Equal(frame, model) {
				t.Fatalf("StoreBytes(%d, %d bytes) differs from copy", off, n)
			}
			got := make([]byte, n)
			LoadBytes(frame, off, got)
			if !bytes.Equal(got, src) {
				t.Fatalf("LoadBytes(%d, %d bytes) = %x, want %x", off, n, got, src)
			}
		}
	}
	page := make([]byte, PageSize)
	LoadBytes(frame, 0, page)
	if !bytes.Equal(page, model) {
		t.Fatal("a whole-page LoadBytes differs from the page")
	}
}

func TestAtomicRunsMatchCodecs(t *testing.T) {
	frame, model := patterned()
	for _, c := range []struct{ off, n int }{{0, 0}, {0, 1}, {8, 3}, {PageSize - 64, 8}, {0, PageSize / WordSize}} {
		fs, is := make([]float64, c.n), make([]int64, c.n)
		for i := range fs {
			fs[i], is[i] = float64(i)/3, int64(i)<<40|int64(c.off)
		}
		StoreWords(frame, c.off, fs)
		PutWords(model, c.off, fs)
		gotF, wantF := make([]float64, c.n), make([]float64, c.n)
		LoadWords(frame, c.off, gotF)
		GetWords(model, c.off, wantF)
		StoreWords(frame, c.off, is)
		PutWords(model, c.off, is)
		gotI, wantI := make([]int64, c.n), make([]int64, c.n)
		LoadWords(frame, c.off, gotI)
		GetWords(model, c.off, wantI)
		for i := range fs {
			if gotF[i] != wantF[i] || gotI[i] != wantI[i] {
				t.Fatalf("run %+v word %d: loaded %v/%d, codecs %v/%d", c, i, gotF[i], gotI[i], wantF[i], wantI[i])
			}
		}
		if !bytes.Equal(frame, model) {
			t.Fatalf("run %+v: the frame differs from the codecs' page", c)
		}
	}
}

// TestAtomicRejects: a misaligned frame, an unaligned run and an access
// past the frame's end panic, and none of them stores anything first.
func TestAtomicRejects(t *testing.T) {
	frame, model := patterned()
	for name, f := range map[string]func(){
		"misaligned frame": func() { LoadWords(frame[1:], 0, make([]int64, 1)) },
		"unaligned run":    func() { LoadWords(frame, 4, make([]int64, 1)) },
		"word past end":    func() { StoreI64(frame, PageSize-4, -1) },
		"bytes past end":   func() { StoreBytes(frame, PageSize-4, []byte{1, 2, 3, 4, 5}) },
		"run past end":     func() { StoreWords(frame, PageSize-8, []int64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
	if !bytes.Equal(frame, model) {
		t.Fatal("a rejected access stored into the frame")
	}
}

// TestPartialStoresKeepNeighbours: goroutines store disjoint byte ranges
// of the same words at once — two byte spans and a span inside the first
// word, an unaligned word across both, a span in the second — while a
// reader loads both words. No store may undo a neighbour's, and a range
// inside one word is never seen half written.
func TestPartialStoresKeepNeighbours(t *testing.T) {
	const rounds = 20_000
	frame := make([]byte, PageSize)
	spans := []struct{ off, n int }{{0, 2}, {2, 3}, {13, 3}}
	var wg sync.WaitGroup
	for _, s := range spans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= rounds; i++ {
				StoreBytes(frame, s.off, bytes.Repeat([]byte{byte(i)}, s.n))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= rounds; i++ {
			StoreI64(frame, 5, int64(0x0101010101010101*uint64(byte(i))))
		}
	}()
	stop := make(chan struct{})
	read := make(chan error)
	go func() {
		got := make([]byte, 16)
		for {
			select {
			case <-stop:
				read <- nil
				return
			default:
			}
			LoadBytes(frame, 0, got)
			for _, s := range spans {
				if r := got[s.off : s.off+s.n]; !bytes.Equal(r, bytes.Repeat(r[:1], s.n)) {
					read <- fmt.Errorf("the span at %d read half written: %x", s.off, r)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{byte(rounds % 256)}, 16)
	if got := frame[:16]; !bytes.Equal(got, want) {
		t.Fatalf("after every store the words hold %x, want %x", got, want)
	}
}

// FuzzFrameAccess holds the atomic helpers to the plain codecs on
// arbitrary spans: StoreBytes at off equals copy, LoadBytes returns what
// was stored, an unaligned or aligned word where one fits equals
// PutI64/GetI64 and GetF64, and the word run from the aligned offset
// below off equals PutWords/GetWords. The seed corpus is committed under
// testdata/fuzz/FuzzFrameAccess: an empty span, one aligned and one
// unaligned word, a span across a word boundary, a span to the page's
// end, the last unaligned word of the page and a run of many words.
func FuzzFrameAccess(f *testing.F) {
	f.Fuzz(func(t *testing.T, off uint16, data []byte) {
		o := int(off) % PageSize
		data = data[:min(len(data), PageSize-o)]
		frame, model := patterned()
		StoreBytes(frame, o, data)
		copy(model[o:], data)
		got := make([]byte, len(data))
		LoadBytes(frame, o, got)
		if !bytes.Equal(frame, model) || !bytes.Equal(got, data) {
			t.Fatalf("StoreBytes/LoadBytes at %d of %d bytes differ from copy", o, len(data))
		}
		if o+WordSize <= PageSize {
			var w [WordSize]byte
			copy(w[:], data)
			v := int64(binary.LittleEndian.Uint64(w[:]))
			StoreI64(frame, o, v)
			PutI64(model, o, v)
			if LoadI64(frame, o) != v || math.Float64bits(LoadF64(frame, o)) != math.Float64bits(GetF64(model, o)) || !bytes.Equal(frame, model) {
				t.Fatalf("word at %d differs from the codecs", o)
			}
		}
		a := o &^ (WordSize - 1)
		vals := make([]int64, min(len(data)/WordSize, (PageSize-a)/WordSize))
		for i := range vals {
			vals[i] = int64(binary.LittleEndian.Uint64(data[WordSize*i:]))
		}
		StoreWords(frame, a, vals)
		PutWords(model, a, vals)
		back, want := make([]int64, len(vals)), make([]int64, len(vals))
		LoadWords(frame, a, back)
		GetWords(model, a, want)
		if !bytes.Equal(frame, model) || !slices.Equal(back, want) {
			t.Fatalf("run of %d words at %d differs from the codecs", len(vals), a)
		}
	})
}
