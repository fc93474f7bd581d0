package checkpoint

import (
	"reflect"
	"testing"
)

// FuzzDecode holds the snapshot decoder to its contract on arbitrary
// bytes: decode never panics, and a snapshot it accepts re-encodes to
// bytes that decode to an equal snapshot. The seed corpus is committed
// under testdata/fuzz/FuzzDecode: empty input, the bare magic, a full and
// an incremental snapshot, the full one cut short and with a trailing
// byte, and a header declaring more regions than bytes remain.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		sn, err := decode(raw)
		if err != nil {
			return
		}
		again, err := decode(Encode(sn))
		if err != nil {
			t.Fatalf("a decoded snapshot re-encodes to bytes that do not decode: %v", err)
		}
		if !reflect.DeepEqual(sn, again) {
			t.Fatalf("re-encoding changed the snapshot:\n%+v\n%+v", sn, again)
		}
	})
}
