package memsim

import (
	"encoding/binary"
	"math"
	"math/bits"
	"runtime"
	"sync/atomic"
	"unsafe"
)

// Atomic frame access. A frame that other goroutines load and store in
// place while its owner uses it — hybriddsm's home frames, which every
// node reaches by PIO — is accessed through these helpers instead of
// GetF64/PutF64, GetWords/PutWords and copy, and then needs no lock: an
// aligned word moves in one atomic load or store; an unaligned word or a
// byte span goes through the aligned words that cover it, loading them
// for a read and, for a word only partly written, replacing it in a
// compare-and-swap loop. Accesses are therefore atomic word by word,
// never as a whole — the granularity of the SAN hardware such a frame
// stands for. On amd64 an atomic load is a plain MOV and a store one
// XCHG. Words keep GetF64's little-endian layout, so a frame written one
// way reads back the other.
//
// The frame must be word-aligned in memory and a whole number of words
// long, as every page buffer is; the run and byte helpers check the
// alignment once per call, the single-word ones not at all.
// Out-of-range accesses panic before anything is stored.

// bigEndian is whether the host stores words most significant byte
// first; frames are little-endian either way.
const bigEndian = runtime.GOARCH == "ppc64" || runtime.GOARCH == "s390x" || runtime.GOARCH == "mips" || runtime.GOARCH == "mips64"

// le converts between a host-order word and its little-endian value.
func le(w uint64) uint64 {
	if bigEndian {
		return bits.ReverseBytes64(w)
	}
	return w
}

// at returns the word at byte offset off of frame, a multiple of
// WordSize, without checking the frame's alignment.
func at(frame []byte, off int) *uint64 {
	return (*uint64)(unsafe.Pointer((*[WordSize]byte)(frame[off:])))
}

// aligned returns the count words of frame from off, a multiple of
// WordSize, panicking unless the frame is word-aligned in memory.
func aligned(frame []byte, off, count int) []uint64 {
	_ = frame[off : off+WordSize*count]
	if count == 0 {
		return nil
	}
	p := at(frame, off)
	if uintptr(unsafe.Pointer(p))%WordSize != 0 {
		panic("memsim: frame is not word-aligned")
	}
	return unsafe.Slice(p, count)
}

// loadWord returns the little-endian value of the 8 bytes at off.
func loadWord(frame []byte, off int) uint64 {
	if r := off % WordSize; r != 0 {
		return loadSplit(frame, off-r, uint(r)*8)
	}
	return le(atomic.LoadUint64(at(frame, off)))
}

// loadSplit is loadWord of a word that starts sh bits into the word at
// off.
func loadSplit(frame []byte, off int, sh uint) uint64 {
	lo, hi := at(frame, off), at(frame, off+WordSize)
	return le(atomic.LoadUint64(lo))>>sh | le(atomic.LoadUint64(hi))<<(64-sh)
}

// storeWord stores v little-endian as the 8 bytes at off.
func storeWord(frame []byte, off int, v uint64) {
	if r := off % WordSize; r != 0 {
		storeSplit(frame, off-r, uint(r)*8, v)
		return
	}
	atomic.StoreUint64(at(frame, off), le(v))
}

// storeSplit is storeWord of a word that starts sh bits into the word at
// off.
func storeSplit(frame []byte, off int, sh uint, v uint64) {
	lo, hi := at(frame, off), at(frame, off+WordSize)
	storeMasked(lo, le(^uint64(0)<<sh), le(v<<sh))
	storeMasked(hi, le(^uint64(0)>>(64-sh)), le(v>>(64-sh)))
}

// storeMasked replaces the bits of *p that mask selects with v's (both
// in host order), keeping the rest as a concurrent store left them.
func storeMasked(p *uint64, mask, v uint64) {
	for {
		old := atomic.LoadUint64(p)
		if atomic.CompareAndSwapUint64(p, old, old&^mask|v&mask) {
			return
		}
	}
}

// LoadF64 is GetF64 by atomic loads.
func LoadF64(frame []byte, off int) float64 { return math.Float64frombits(loadWord(frame, off)) }

// StoreF64 is PutF64 by atomic stores.
func StoreF64(frame []byte, off int, v float64) { storeWord(frame, off, math.Float64bits(v)) }

// LoadI64 is GetI64 by atomic loads.
func LoadI64(frame []byte, off int) int64 { return int64(loadWord(frame, off)) }

// StoreI64 is PutI64 by atomic stores.
func StoreI64(frame []byte, off int, v int64) { storeWord(frame, off, uint64(v)) }

// run returns the len(vals) words of frame from off, a multiple of
// WordSize, and vals viewed as their bit patterns.
func run[T Word](frame []byte, off int, vals []T) (fw, vw []uint64) {
	if off%WordSize != 0 {
		panic("memsim: unaligned word run")
	}
	fw = aligned(frame, off, len(vals))
	if len(vals) == 0 {
		return nil, nil
	}
	return fw, unsafe.Slice((*uint64)(unsafe.Pointer(&vals[0])), len(vals))
}

// LoadWords is GetWords by atomic loads; off must be a multiple of
// WordSize.
func LoadWords[T Word](frame []byte, off int, dst []T) {
	fw, dw := run(frame, off, dst)
	for i := range dw {
		dw[i] = le(atomic.LoadUint64(&fw[i]))
	}
}

// StoreWords is PutWords by atomic stores; off must be a multiple of
// WordSize.
func StoreWords[T Word](frame []byte, off int, src []T) {
	fw, sw := run(frame, off, src)
	for i := range sw {
		atomic.StoreUint64(&fw[i], le(sw[i]))
	}
}

// LoadBytes copies len(dst) bytes of frame from off into dst, loading
// each word they touch once; LoadBytes(frame, 0, page) copies a page in
// PageSize/WordSize atomic loads.
func LoadBytes(frame []byte, off int, dst []byte) {
	r := off % WordSize
	fw := aligned(frame, off-r, (r+len(dst)+WordSize-1)/WordSize)
	if r != 0 && len(fw) > 0 {
		var b [WordSize]byte
		binary.NativeEndian.PutUint64(b[:], atomic.LoadUint64(&fw[0]))
		n := copy(dst, b[r:])
		dst, fw = dst[n:], fw[1:]
	}
	for len(dst) >= WordSize {
		binary.NativeEndian.PutUint64(dst, atomic.LoadUint64(&fw[0]))
		dst, fw = dst[WordSize:], fw[1:]
	}
	if len(dst) > 0 {
		var b [WordSize]byte
		binary.NativeEndian.PutUint64(b[:], atomic.LoadUint64(&fw[0]))
		copy(dst, b[:])
	}
}

// StoreBytes copies src into frame at off, storing each whole word it
// covers and merging a partly covered one into its neighbours' bytes.
func StoreBytes(frame []byte, off int, src []byte) {
	r := off % WordSize
	fw := aligned(frame, off-r, (r+len(src)+WordSize-1)/WordSize)
	for len(src) > 0 {
		if r == 0 && len(src) >= WordSize {
			atomic.StoreUint64(&fw[0], binary.NativeEndian.Uint64(src))
			src, fw = src[WordSize:], fw[1:]
			continue
		}
		var b, m [WordSize]byte
		n := copy(b[r:], src)
		for i := r; i < r+n; i++ {
			m[i] = 0xff
		}
		storeMasked(&fw[0], binary.NativeEndian.Uint64(m[:]), binary.NativeEndian.Uint64(b[:]))
		src, fw, r = src[n:], fw[1:], 0
	}
}
