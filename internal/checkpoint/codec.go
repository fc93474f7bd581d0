package checkpoint

import (
	"encoding/binary"
	"fmt"
	"sort"

	"hamster/internal/memsim"
	"hamster/internal/vclock"
)

// Versioned binary snapshot codec (HAMCKPT1). Encode is what a snapshot
// costs to serialize, and the repository benchmark times it per page;
// decode is its round-trip reference in the tests. The magic carries the
// version ("HAMCKPT" + format digit); readers reject
// anything else, so a future layout change bumps the digit rather than
// silently misparsing. All integers are little-endian; maps are written
// in sorted key order so encoding is a pure function of snapshot content.

const magic = "HAMCKPT1"

type enc struct{ b []byte }

func (e *enc) u8(v uint8)    { e.b = append(e.b, v) }
func (e *enc) u32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)   { e.u64(uint64(v)) }
func (e *enc) blob(v []byte) { e.u32(uint32(len(v))); e.b = append(e.b, v...) }
func (e *enc) str(v string)  { e.blob([]byte(v)) }

func (e *enc) region(r memsim.Region) {
	e.u64(uint64(r.Base))
	e.u64(r.Size)
	e.str(r.Name)
	e.i64(int64(r.Policy))
	e.i64(int64(r.FixedNode))
}

// Encode serializes a snapshot.
func Encode(sn *Snapshot) []byte {
	e := &enc{b: make([]byte, 0, 1024)}
	e.b = append(e.b, magic...)
	e.u64(sn.Seq)
	e.u64(sn.BarrierCount)
	if sn.Incremental {
		e.u8(1)
	} else {
		e.u8(0)
	}
	e.u64(sn.BaseSeq)

	e.i64(int64(sn.Space.Nodes))
	e.u64(uint64(sn.Space.Next))
	e.u32(uint32(len(sn.Space.Regions)))
	for _, r := range sn.Space.Regions {
		e.region(r)
	}
	e.u32(uint32(len(sn.Space.Free)))
	for _, r := range sn.Space.Free {
		e.region(r)
	}
	pages := make([]memsim.PageID, 0, len(sn.Space.Homes))
	for p := range sn.Space.Homes {
		pages = append(pages, p)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	e.u32(uint32(len(pages)))
	for _, p := range pages {
		e.u64(uint64(p))
		e.i64(int64(sn.Space.Homes[p]))
	}

	e.i64(int64(sn.Locks))
	e.u32(uint32(len(sn.Nodes)))
	for _, ns := range sn.Nodes {
		e.u64(ns.Epoch)
		e.u64(uint64(ns.Clock.Compute))
		e.u64(uint64(ns.Clock.Memory))
		e.u64(uint64(ns.Clock.Protocol))
		e.u64(uint64(ns.Clock.Network))
		e.u64(uint64(ns.Clock.Stolen))
		e.u32(uint32(len(ns.Pages)))
		for _, pc := range ns.Pages {
			e.u64(uint64(pc.Page))
			if pc.Full != nil {
				e.u8(0)
				e.blob(pc.Full)
			} else {
				e.u8(1)
				e.blob(pc.Diff)
			}
		}
		e.u32(uint32(len(ns.Cached)))
		for _, p := range ns.Cached {
			e.u64(uint64(p))
		}
		e.u32(uint32(len(ns.App)))
		for _, b := range ns.App {
			e.blob(b)
		}
	}
	return e.b
}

type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("checkpoint: "+format, args...)
	}
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b)-d.off < n {
		d.fail("truncated snapshot at offset %d (need %d bytes)", d.off, n)
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

func (d *dec) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *dec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *dec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *dec) i64() int64 { return int64(d.u64()) }

// count validates a declared element count against the bytes remaining
// (each element needs at least min bytes) before any allocation sized by
// it, so corrupt headers fail cleanly instead of exhausting memory.
func (d *dec) count(min int) int {
	n := int(d.u32())
	if d.err == nil && n*min > len(d.b)-d.off {
		d.fail("count %d exceeds remaining %d bytes", n, len(d.b)-d.off)
		return 0
	}
	return n
}

func (d *dec) blob() []byte {
	n := d.count(1)
	b := d.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

func (d *dec) region() memsim.Region {
	var r memsim.Region
	r.Base = memsim.Addr(d.u64())
	r.Size = d.u64()
	r.Name = string(d.blob())
	r.Policy = memsim.Policy(d.i64())
	r.FixedNode = int(d.i64())
	return r
}

// decode parses a snapshot serialized by Encode, validating the magic
// and every length against the remaining payload.
func decode(raw []byte) (*Snapshot, error) {
	if len(raw) < len(magic) || string(raw[:len(magic)]) != magic {
		return nil, fmt.Errorf("checkpoint: bad snapshot magic (want %q)", magic)
	}
	d := &dec{b: raw, off: len(magic)}
	sn := &Snapshot{}
	sn.Seq = d.u64()
	sn.BarrierCount = d.u64()
	sn.Incremental = d.u8() != 0
	sn.BaseSeq = d.u64()

	sn.Space.Nodes = int(d.i64())
	sn.Space.Next = memsim.Addr(d.u64())
	for i, n := 0, d.count(25); i < n && d.err == nil; i++ {
		sn.Space.Regions = append(sn.Space.Regions, d.region())
	}
	for i, n := 0, d.count(25); i < n && d.err == nil; i++ {
		sn.Space.Free = append(sn.Space.Free, d.region())
	}
	sn.Space.Homes = make(map[memsim.PageID]int)
	for i, n := 0, d.count(16); i < n && d.err == nil; i++ {
		p := memsim.PageID(d.u64())
		sn.Space.Homes[p] = int(d.i64())
	}

	sn.Locks = int(d.i64())
	for i, n := 0, d.count(52); i < n && d.err == nil; i++ {
		var ns NodeState
		ns.Epoch = d.u64()
		ns.Clock.Compute = vclock.Duration(d.u64())
		ns.Clock.Memory = vclock.Duration(d.u64())
		ns.Clock.Protocol = vclock.Duration(d.u64())
		ns.Clock.Network = vclock.Duration(d.u64())
		ns.Clock.Stolen = vclock.Duration(d.u64())
		for j, m := 0, d.count(13); j < m && d.err == nil; j++ {
			var pc PageCapture
			pc.Page = memsim.PageID(d.u64())
			if d.u8() == 0 {
				pc.Full = d.blob()
			} else {
				pc.Diff = d.blob()
			}
			ns.Pages = append(ns.Pages, pc)
		}
		for j, m := 0, d.count(8); j < m && d.err == nil; j++ {
			ns.Cached = append(ns.Cached, memsim.PageID(d.u64()))
		}
		for j, m := 0, d.count(4); j < m && d.err == nil; j++ {
			ns.App = append(ns.App, d.blob())
		}
		sn.Nodes = append(sn.Nodes, ns)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(raw) {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes after snapshot", len(raw)-d.off)
	}
	return sn, nil
}
