package amsg

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// FuzzDec holds the decoder to its contract. The input is read twice:
//
//   - As a script of values (see codecScript), encoded with Enc and decoded
//     with Dec: the round trip returns every value.
//   - As a payload, decoded to its end by each of Dec's four methods in
//     turn: every read returns or panics with a bounds error, and the whole
//     pass allocates no more than the input's size, up to the allocator's
//     rounding.
//
// The seed corpus is committed under testdata/fuzz/FuzzDec: empty input, a
// script of every value kind, a U64s count of 0xffffffff with no payload
// (32 GiB before the count was checked), a count of 2^20 with one word, and
// a blob length past the end of a pooled-size buffer.
func FuzzDec(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		want := codecScript(raw)
		e := GetEnc()
		defer e.Free()
		for _, v := range want {
			v.put(e)
		}
		d := MakeDec(e.Bytes())
		for i, v := range want {
			if got := v.get(&d); !got.equal(v) {
				t.Fatalf("value %d: encoded %+v, decoded %+v", i, v, got)
			}
		}
		if d.off != len(d.buf) {
			t.Fatalf("%d bytes left after the round trip", len(d.buf)-d.off)
		}

		for op := range 4 {
			// The least of three passes: the fuzzing engine allocates on
			// goroutines of its own while a pass runs.
			grew := uint64(math.MaxUint64)
			for range 3 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err := decodeAll(raw, op)
				runtime.ReadMemStats(&after)
				if err != "" && !strings.Contains(err, "out of range") {
					t.Fatalf("op %d: panic %q is not a bounds error", op, err)
				}
				grew = min(grew, after.TotalAlloc-before.TotalAlloc)
			}
			// Size classes round an allocation up by at most 2x; the
			// panic and its message cost a fixed few hundred bytes.
			if bound := 2*uint64(len(raw)) + 4096; grew > bound {
				t.Fatalf("op %d: decoding %d bytes allocated %d", op, len(raw), grew)
			}
		}
	})
}

// decodeAll applies one Dec method (0 U32, 1 U64, 2 Blob, 3 U64s) to raw
// until the payload is consumed, returning the panic's message, if any.
func decodeAll(raw []byte, op int) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			re, ok := r.(runtime.Error)
			if !ok {
				panic(r)
			}
			msg = re.Error()
		}
	}()
	d := MakeDec(raw)
	for d.off < len(d.buf) {
		switch op {
		case 0:
			d.U32()
		case 1:
			d.U64()
		case 2:
			d.Blob()
		case 3:
			d.U64s()
		}
	}
	return ""
}

// codecValue is one value of a round-trip script.
type codecValue struct {
	op   int // 0 U32, 1 U64, 2 Blob, 3 U64s
	u    uint64
	blob []byte
	us   []uint64
}

func (v codecValue) put(e *Enc) {
	switch v.op {
	case 0:
		e.U32(uint32(v.u))
	case 1:
		e.U64(v.u)
	case 2:
		e.Blob(v.blob)
	case 3:
		e.U64s(v.us)
	}
}

func (v codecValue) get(d *Dec) codecValue {
	got := codecValue{op: v.op}
	switch v.op {
	case 0:
		got.u = uint64(d.U32())
	case 1:
		got.u = d.U64()
	case 2:
		got.blob = d.Blob()
	case 3:
		got.us = d.U64s()
	}
	return got
}

func (v codecValue) equal(o codecValue) bool {
	return v.op == o.op && v.u == o.u && bytes.Equal(v.blob, o.blob) && slices.Equal(v.us, o.us)
}

// codecScript reads raw as a list of values: an op byte (mod 4), then a
// 4- or 8-byte value, a length byte and that many blob bytes, or a count
// byte (mod 8) and that many 8-byte words. A short tail reads as zeros.
func codecScript(raw []byte) []codecValue {
	take := func(n int) []byte {
		b := make([]byte, n)
		raw = raw[copy(b, raw):]
		return b
	}
	var out []codecValue
	for len(raw) > 0 {
		v := codecValue{op: int(take(1)[0] % 4)}
		switch v.op {
		case 0:
			v.u = uint64(binary.LittleEndian.Uint32(take(4)))
		case 1:
			v.u = binary.LittleEndian.Uint64(take(8))
		case 2:
			v.blob = take(int(take(1)[0]))
		case 3:
			v.us = make([]uint64, take(1)[0]%8)
			for i := range v.us {
				v.us[i] = binary.LittleEndian.Uint64(take(8))
			}
		}
		out = append(out, v)
	}
	return out
}
