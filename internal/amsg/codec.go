package amsg

import (
	"encoding/binary"
	"sync"
)

// Enc is an append-style binary encoder for protocol payloads. All fields
// are little-endian. The zero value is ready to use.
type Enc struct {
	buf []byte
}

// encPool recycles encoders (struct plus backing buffer) for protocol
// hot paths. Ownership rule: a pooled encoder's buffer may be released
// with Free only after the Call that carried it RETURNS — the
// fault-free active-message path runs the handler synchronously on the
// caller's goroutine, so by then no reference to the request remains.
// A payload handed to the queued-message path (simnet.Send) must NEVER
// be freed: the receiver holds it for an unbounded time.
var encPool = sync.Pool{New: func() any { return new(Enc) }}

// GetEnc returns a pooled encoder, reset to empty but keeping whatever
// backing capacity it accumulated in earlier lives.
func GetEnc() *Enc {
	e := encPool.Get().(*Enc)
	e.buf = e.buf[:0]
	return e
}

// Free recycles the encoder and its buffer. See encPool for when this is
// legal; after Free the encoder and any slice obtained from Bytes are
// invalid.
func (e *Enc) Free() { encPool.Put(e) }

// Bytes returns the encoded payload.
func (e *Enc) Bytes() []byte { return e.buf }

// U32 appends a 32-bit value.
func (e *Enc) U32(v uint32) *Enc {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
	return e
}

// U64 appends a 64-bit value.
func (e *Enc) U64(v uint64) *Enc {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
	return e
}

// Blob appends a length-prefixed byte slice.
func (e *Enc) Blob(b []byte) *Enc {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
	return e
}

// U64s appends a count-prefixed list of 64-bit values — the batched
// protocols' page-list payload shape (one header amortized over the run).
func (e *Enc) U64s(vs []uint64) *Enc {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.U64(v)
	}
	return e
}

// Dec is the matching sequential decoder. Decoding past the end panics
// with a bounds error, before anything is allocated for what is not there:
// protocol payloads are internal, so a short buffer is a programming error.
type Dec struct {
	buf []byte
	off int
}

// MakeDec wraps a payload for decoding. It returns the decoder by value so
// handlers on the hot path keep it on the stack.
func MakeDec(b []byte) Dec { return Dec{buf: b} }

// U32 reads a 32-bit value.
func (d *Dec) U32() uint32 {
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

// U64 reads a 64-bit value.
func (d *Dec) U64() uint64 {
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// Blob reads a length-prefixed byte slice (aliasing the underlying buffer).
func (d *Dec) Blob() []byte {
	return d.next(int(d.U32()))
}

// U64s reads a count-prefixed list of 64-bit values (see Enc.U64s).
func (d *Dec) U64s() []uint64 {
	n := int(d.U32())
	words := d.next(8 * n) // a count the payload cannot hold panics here, unallocated
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(words[8*i:])
	}
	return out
}

// next consumes the following n bytes. The three-index slice bounds the
// read by the payload's length, not the capacity behind it (a pooled
// encoder's buffer has more).
func (d *Dec) next(n int) []byte {
	b := d.buf[d.off : d.off+n : len(d.buf)]
	d.off += n
	return b
}
