package hybriddsm

import (
	"sync"

	mem "hamster/internal/memsim"
)

// frame guards its bytes with a lock and reads them with the plain codec
// and copy (hybriddsm_frames_atomic).
type frame struct {
	Mu  sync.Mutex
	buf []byte
}

func (f *frame) load(off int) float64 {
	f.Mu.Lock()
	defer f.Mu.Unlock()
	return mem.GetF64(f.buf, off)
}

func (f *frame) fetch(dst []byte) { copy(dst, f.buf) }
