package swdsm

import (
	"bytes"
	"encoding/binary"
	"testing"

	"hamster/internal/memsim"
)

// FuzzApplyDiff holds the diff codec to its contract on arbitrary input
// against a PageSize frame: ApplyDiff never panics; when it accepts a
// diff, no byte outside the diff's runs changes; and whatever the frame
// ends up holding, ApplyDiff(twin, BuildDiff(frame, twin)) reproduces it.
// The seed corpus is committed under testdata/fuzz/FuzzApplyDiff: an
// empty diff, one run, two runs, a run ending at the page end, a
// truncated header, a zero-length run, a run past the page end and a run
// whose payload is cut short.
func FuzzApplyDiff(f *testing.F) {
	f.Fuzz(func(t *testing.T, fill byte, diff []byte) {
		twin := make([]byte, memsim.PageSize)
		for i := range twin {
			twin[i] = fill ^ byte(i*7)
		}
		frame := append([]byte(nil), twin...)
		if err := ApplyDiff(frame, diff); err == nil {
			covered := make([]bool, memsim.PageSize)
			for i := 0; i < len(diff); {
				off, n := int(binary.LittleEndian.Uint16(diff[i:])), int(binary.LittleEndian.Uint16(diff[i+2:]))
				for j := off; j < off+n; j++ {
					covered[j] = true
				}
				i += diffRunHeader + n
			}
			for j := range frame {
				if !covered[j] && frame[j] != twin[j] {
					t.Fatalf("byte %d outside every run changed: %#x -> %#x", j, twin[j], frame[j])
				}
			}
		}
		restored := append([]byte(nil), twin...)
		if err := ApplyDiff(restored, BuildDiff(frame, twin)); err != nil {
			t.Fatalf("BuildDiff's own diff does not apply: %v", err)
		}
		if !bytes.Equal(restored, frame) {
			t.Fatal("ApplyDiff(twin, BuildDiff(frame, twin)) does not reproduce the frame")
		}
	})
}
