package hybriddsm

import "hamster/internal/memsim"

// A test may hold a frame's lock and read it plainly.
func holdAndRead(f *frame, dst []byte) float64 {
	f.Mu.Lock()
	defer f.Mu.Unlock()
	copy(dst, f.buf)
	return memsim.GetF64(f.buf, 0)
}
