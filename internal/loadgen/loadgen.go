// Package loadgen provides the deterministic building blocks of the
// open-loop load generator that drives the server-shaped workloads in
// internal/serve: a seeded SplitMix64 draw stream, a Zipfian key-
// popularity sampler, virtual-time Poisson arrival processes, and a
// log-bucketed latency histogram with exact merge semantics.
//
// Everything in this package is a pure function of its seed and inputs —
// no wall clock, no global RNG, no floating-point library calls whose
// results could differ between runs. That purity is what lets the serve
// campaign (BENCH_8) replay bit-identically and run cell-parallel with
// byte-identical JSON: every op a node generates, every key it picks,
// and every histogram bucket it fills is reproducible from (seed, node,
// draw index) alone. The same SplitMix64 finalizer as internal/simnet's
// fault draws is used, so the whole simulator shares one mixing
// function.
//
// Concurrency: a Stream/Arrivals/Hist belongs to one goroutine; Zipf is
// immutable after construction and safe to share.
package loadgen

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// mix64 is the SplitMix64 finalizer (Steele et al.), the same mixer
// internal/simnet uses for fault draws.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Mix64 exposes the shared SplitMix64 finalizer for key scattering and
// checksum folding (serve hashes keys to shards with it).
func Mix64(x uint64) uint64 { return mix64(x) }

// Stream is a SplitMix64 sequence: the golden-ratio increment walks the
// state, the finalizer whitens each output. State is one word, so a
// stream checkpoints as 8 bytes and restores exactly.
type Stream struct {
	state uint64
}

// NewStream seeds a stream. Distinct seeds give independent streams;
// serve derives per-node streams as seed ^ Mix64(node).
func NewStream(seed uint64) *Stream { return &Stream{state: seed} }

// Next returns the next 64-bit draw.
func (s *Stream) Next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	return mix64(s.state)
}

// Float64 returns the next draw as a uniform in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Next()>>11) / float64(uint64(1)<<53)
}

// Intn returns a uniform integer in [0, n). n must be > 0.
func (s *Stream) Intn(n int) int {
	return int(s.Next() % uint64(n))
}

// ExpNs draws an exponential with the given mean in nanoseconds,
// floored at 1 ns so arrival times strictly advance.
func (s *Stream) ExpNs(meanNs float64) uint64 {
	u := s.Float64()
	d := -math.Log(1-u) * meanNs
	if d < 1 {
		return 1
	}
	return uint64(d)
}

// State returns the stream position for checkpointing.
func (s *Stream) State() uint64 { return s.state }

// SetState restores a checkpointed stream position.
func (s *Stream) SetState(v uint64) { s.state = v }

// Zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^skew. skew = 0 degrades to the uniform distribution; the
// serving literature's standard skew is ~0.99 (YCSB's zipfian). The
// sampler precomputes the CDF once and answers each draw with a binary
// search, so sampling is deterministic, allocation-free, and O(log n).
type Zipf struct {
	cdf []float64
}

// NewZipf builds a sampler over n ranks. n must be > 0; skew must be
// >= 0.
func NewZipf(n int, skew float64) *Zipf {
	z := &Zipf{cdf: make([]float64, n)}
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), skew)
		z.cdf[k] = sum
	}
	inv := 1 / sum
	for k := range z.cdf {
		z.cdf[k] *= inv
	}
	z.cdf[n-1] = 1 // guard against rounding shortfall
	return z
}

// N returns the rank-space size.
func (z *Zipf) N() int { return len(z.cdf) }

// Prob returns rank k's probability mass (tests check the sampler
// against these).
func (z *Zipf) Prob(k int) float64 {
	if k == 0 {
		return z.cdf[0]
	}
	return z.cdf[k] - z.cdf[k-1]
}

// Sample draws a rank using the stream.
func (z *Zipf) Sample(s *Stream) int {
	u := s.Float64()
	// Binary search for the first cdf entry >= u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Arrivals is an open-loop Poisson arrival process in virtual
// nanoseconds: the aggregate stream of a node's many client sessions,
// merged (the superposition of independent Poisson processes is Poisson
// with the summed rate). Peek/Take split lookahead from consumption so
// a caller can drain exactly the arrivals inside a time window.
type Arrivals struct {
	s    Stream
	next uint64
	mean float64
}

// NewArrivals builds a process with the given mean inter-arrival gap in
// virtual nanoseconds.
func NewArrivals(seed uint64, meanGapNs float64) *Arrivals {
	a := &Arrivals{s: Stream{state: seed}, mean: meanGapNs}
	a.next = a.s.ExpNs(a.mean)
	return a
}

// Peek returns the next arrival time without consuming it.
func (a *Arrivals) Peek() uint64 { return a.next }

// Take consumes and returns the next arrival time.
func (a *Arrivals) Take() uint64 {
	t := a.next
	a.next += a.s.ExpNs(a.mean)
	return t
}

// State captures the process for checkpointing (stream position plus
// pending arrival time).
func (a *Arrivals) State() (stream, next uint64) { return a.s.state, a.next }

// SetState restores a captured process.
func (a *Arrivals) SetState(stream, next uint64) { a.s.state, a.next = stream, next }

// histBuckets bounds the bucket array: values below 64 ns are exact,
// larger values land in 32 sub-buckets per power of two (~3% relative
// resolution) up to 2^63 ns.
const histBuckets = 64 + 32*57

// Hist is a log-bucketed latency histogram. Adds are O(1), merges are
// element-wise sums, and quantiles are exact bucket upper bounds — so
// any way of partitioning the same set of samples across nodes merges
// to the identical histogram, which is what makes per-node collection
// safe for a bit-reproducible campaign.
type Hist struct {
	buckets [histBuckets]uint64
	count   uint64
	sum     uint64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v uint64) int {
	if v < 64 {
		return int(v)
	}
	e := bits.Len64(v) - 7 // v in [64<<e, 128<<e)
	return 64 + 32*e + int((v-(64<<e))>>(e+1))
}

// bucketMax returns a bucket's inclusive upper bound.
func bucketMax(i int) uint64 {
	if i < 64 {
		return uint64(i)
	}
	e := (i - 64) / 32
	sub := uint64((i - 64) % 32)
	return (64 << e) + (sub+1)<<(e+1) - 1
}

// Add records one sample in nanoseconds.
func (h *Hist) Add(ns uint64) {
	h.buckets[bucketOf(ns)]++
	h.count++
	h.sum += ns
}

// Merge folds another histogram into this one.
func (h *Hist) Merge(o *Hist) {
	for i, v := range o.buckets {
		h.buckets[i] += v
	}
	h.count += o.count
	h.sum += o.sum
}

// Count returns the number of recorded samples.
func (h *Hist) Count() uint64 { return h.count }

// Sum returns the total of all recorded samples.
func (h *Hist) Sum() uint64 { return h.sum }

// Mean returns the average sample (0 when empty).
func (h *Hist) Mean() uint64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / h.count
}

// Quantile returns the q-quantile (0 < q <= 1) as the upper bound of
// the bucket holding that sample — a deterministic, mergeable
// approximation with ~3% relative error. Returns 0 when empty.
func (h *Hist) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	target := uint64(q * float64(h.count))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for i, v := range h.buckets {
		seen += v
		if seen >= target {
			return bucketMax(i)
		}
	}
	return bucketMax(histBuckets - 1)
}

// histBlobLen is the wire size of an encoded histogram.
const histBlobLen = 8 * (histBuckets + 2)

// Encode serializes the histogram for checkpoint capture.
func (h *Hist) Encode(dst []byte) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], h.count)
	dst = append(dst, b[:]...)
	binary.LittleEndian.PutUint64(b[:], h.sum)
	dst = append(dst, b[:]...)
	for _, v := range h.buckets {
		binary.LittleEndian.PutUint64(b[:], v)
		dst = append(dst, b[:]...)
	}
	return dst
}

// Decode restores an encoded histogram and returns the remaining bytes
// (ok = false on a short buffer).
func (h *Hist) Decode(src []byte) (rest []byte, ok bool) {
	if len(src) < histBlobLen {
		return src, false
	}
	h.count = binary.LittleEndian.Uint64(src[0:])
	h.sum = binary.LittleEndian.Uint64(src[8:])
	for i := range h.buckets {
		h.buckets[i] = binary.LittleEndian.Uint64(src[16+8*i:])
	}
	return src[histBlobLen:], true
}
