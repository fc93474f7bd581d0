package swdsm

import (
	"encoding/binary"
	"fmt"
	"sync"

	"hamster/internal/memsim"
)

// A diff encodes the words of a page that changed relative to its twin, as
// a sequence of runs: [offset uint16][length uint16][length bytes]. Offsets
// and lengths are byte-granular but always word-aligned because the scan
// compares 8-byte words, matching classic multiple-writer DSM protocols:
// two nodes writing disjoint words of the same page produce disjoint diffs
// that merge cleanly at the home.
//
// This wire format is shared verbatim by the aggregated protocol: a
// kindApplyDiffBatch message (aggregate.go) is just a count-prefixed
// sequence of [page][diff-blob] entries, each blob exactly the encoding
// below, so the home applies batched and singleton diffs with the same
// applyDiff and batching can never change what lands in a frame.

const diffRunHeader = 4 // uint16 offset + uint16 length

// maxDiffBytes is the worst-case encoded diff size: a single run covering
// the whole page (one header plus PageSize bytes). Any other run layout is
// smaller — k runs need k-1 unchanged gap words, so header growth is more
// than offset by payload shrinkage.
const maxDiffBytes = diffRunHeader + memsim.PageSize

// Twin pages and diff scratch buffers are the protocol's hot allocations:
// one twin per written page per interval, one diff per flush. Both are
// strictly node-local and dead by the time they are released (Enc.Blob
// copies the diff into the message; the twin is discarded after the scan),
// so they recycle: twins are page buffers and live on pagestore's page
// list (GetPage/PutPage, ownership chain in pagestore/cache.go); diff
// scratch is one run header longer than a page and keeps a pool of its
// own, which stores array pointers, not slices — Put-ting a []byte boxes
// its header into an interface and allocates.
var diffPool = sync.Pool{
	New: func() any { return new([maxDiffBytes]byte) },
}

// putDiff recycles a buildDiff result. Safe on the nil empty-diff return.
func putDiff(b []byte) {
	if cap(b) == maxDiffBytes {
		diffPool.Put((*[maxDiffBytes]byte)(b[:maxDiffBytes]))
	}
}

// buildDiff scans data against twin and returns the encoded diff. A nil
// return means the page is unchanged. Non-nil results come from diffPool;
// callers on the protocol path hand them back via putDiff once encoded.
func buildDiff(data, twin []byte) []byte {
	if len(data) != memsim.PageSize || len(twin) != memsim.PageSize {
		panic(fmt.Sprintf("swdsm: buildDiff on short buffers %d/%d", len(data), len(twin)))
	}
	buf := diffPool.Get().(*[maxDiffBytes]byte)
	out := buf[:0]
	const w = memsim.WordSize
	runStart := -1
	for off := 0; off <= memsim.PageSize; off += w {
		differs := false
		if off < memsim.PageSize {
			differs = binary.LittleEndian.Uint64(data[off:]) != binary.LittleEndian.Uint64(twin[off:])
		}
		switch {
		case differs && runStart < 0:
			runStart = off
		case !differs && runStart >= 0:
			runLen := off - runStart
			out = binary.LittleEndian.AppendUint16(out, uint16(runStart))
			out = binary.LittleEndian.AppendUint16(out, uint16(runLen))
			out = append(out, data[runStart:runStart+runLen]...)
			runStart = -1
		}
	}
	if len(out) == 0 {
		diffPool.Put(buf)
		return nil
	}
	return out
}

// applyDiff patches a home frame with an encoded diff.
func applyDiff(frame, diff []byte) error {
	for i := 0; i < len(diff); {
		if len(diff)-i < diffRunHeader {
			return fmt.Errorf("swdsm: truncated diff header at %d", i)
		}
		off := int(binary.LittleEndian.Uint16(diff[i:]))
		n := int(binary.LittleEndian.Uint16(diff[i+2:]))
		i += diffRunHeader
		if n == 0 || off+n > memsim.PageSize || len(diff)-i < n {
			return fmt.Errorf("swdsm: bad diff run off=%d len=%d", off, n)
		}
		copy(frame[off:off+n], diff[i:i+n])
		i += n
	}
	return nil
}

// BuildDiff is the exported form of buildDiff for the checkpoint
// subsystem's incremental capture: it returns a caller-owned copy (nil
// when data and shadow are identical) instead of a pooled buffer, so the
// result can be retained in a snapshot.
func BuildDiff(data, shadow []byte) []byte {
	d := buildDiff(data, shadow)
	if d == nil {
		return nil
	}
	out := append([]byte(nil), d...)
	putDiff(d)
	return out
}

// ApplyDiff is the exported form of applyDiff: it patches frame with an
// encoded diff (checkpoint materialization replaying incremental epochs
// onto a full snapshot).
func ApplyDiff(frame, diff []byte) error { return applyDiff(frame, diff) }
