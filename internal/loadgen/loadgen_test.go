package loadgen

import (
	"bytes"
	"math"
	"testing"
)

// goldenDraws pins the first 64 outputs of a Stream seeded with 0x5EED.
// The generator feeds every campaign cell; any change to the recurrence
// or the finalizer silently invalidates every pinned benchmark artifact,
// so the raw draws themselves are frozen here.
var goldenDraws = [64]uint64{
	0x09f1fd9d03f0a9b4, 0x553274161bbf8475, 0x5d5bca4696b343b3, 0x70d29b6c7d22528d,
	0x0bf2b716f9915475, 0x5eb7f92b95387cca, 0x296cd0f2c21d7f90, 0x1289a69805c125b1,
	0xdaa27fb8dacb9e73, 0x3ed08d59cb3f4727, 0x58a5f17b6c15c659, 0x651ac042fa7b481a,
	0x22af6aeaa88e8dcc, 0x2d2bae64640abfb9, 0xad0e83a710231b07, 0x9d30ff2169d91f12,
	0xf5ff07c9523504dd, 0x1273c823ba66eec0, 0x47e1dbe249cb520b, 0xbbea42bd69484adc,
	0xc33e61bc6ef9e4c4, 0x752cd583231b5114, 0xe53dc6e1988622e5, 0x928eb721ed361ba3,
	0x10bf7972f379031e, 0x974041d15ad75c38, 0xff9b273f42286387, 0x2601349fef087eb0,
	0x5753f8ef429a4a7e, 0x2663e5e9dcbcbaba, 0xa8bb872e52c6235c, 0xe1774d56b0dc91ac,
	0x8634930f702b6452, 0x1674658f30892ddd, 0x2f957488e4fd469e, 0x656ed1cb9a126362,
	0x5325662609163089, 0x3ba278a39643a1bc, 0x0efa3dda544646d9, 0x4cc8c74c1fb520cc,
	0x626c1ef331f85c18, 0x01457b862cc7b3c9, 0x3825403df6f9ad71, 0x272c78c413c9d42d,
	0x4dde6838b289c9ce, 0x1467a1289e64eb89, 0x00eb8b8a36b5b98d, 0xf2443b542bf81344,
	0x278641cad03ad4be, 0x5a71cd3d503faeee, 0x2c58daa06446969a, 0x79559ff0f9d26976,
	0x4a127fe7aac0fffd, 0xbca4883827803ecc, 0xb60627c1559d3728, 0x0d1d73ce3f48b12d,
	0x78e74b9eb7b50e87, 0xeb26c664ba822e65, 0xef794a8dca9dcb0a, 0x89119cbf1ee9784b,
	0x180b37dff135de45, 0xbe1b67d3e6055f33, 0x6fbe6fba62ce02c8, 0x1fbf7b87b4f36bc8,
}

func TestStreamGoldenDraws(t *testing.T) {
	s := NewStream(0x5EED)
	for i, want := range goldenDraws {
		if got := s.Next(); got != want {
			t.Fatalf("draw %d = %#x, want %#x — the stream recurrence changed; "+
				"every pinned campaign artifact is now invalid", i, got, want)
		}
	}
}

func TestStreamStateRoundTrip(t *testing.T) {
	s := NewStream(42)
	for i := 0; i < 17; i++ {
		s.Next()
	}
	saved := s.State()
	var want [8]uint64
	for i := range want {
		want[i] = s.Next()
	}
	s.SetState(saved)
	for i := range want {
		if got := s.Next(); got != want[i] {
			t.Fatalf("resumed draw %d = %#x, want %#x", i, got, want[i])
		}
	}
}

// The inter-arrival gaps must be exponential with the configured mean:
// over 200k draws the sample mean lands within 2% and consecutive
// arrival times strictly increase (expNs floors at 1 ns).
func TestArrivalsPoissonMean(t *testing.T) {
	const mean = 4000.0
	const n = 200_000
	a := NewArrivals(99, mean)
	var prev uint64
	var sum float64
	for i := 0; i < n; i++ {
		at := a.Take()
		if at <= prev {
			t.Fatalf("arrival %d at %d does not advance past %d", i, at, prev)
		}
		sum += float64(at - prev)
		prev = at
	}
	got := sum / n
	if math.Abs(got-mean)/mean > 0.02 {
		t.Fatalf("mean inter-arrival gap %.1f ns, want %.0f ±2%%", got, mean)
	}
}

func TestArrivalsPeekIsTake(t *testing.T) {
	a := NewArrivals(7, 1000)
	for i := 0; i < 100; i++ {
		p := a.Peek()
		if got := a.Take(); got != p {
			t.Fatalf("draw %d: Peek %d != Take %d", i, p, got)
		}
	}
}

// Zipf sampling must match its own analytic distribution: a chi-squared
// test of 100k samples against the Prob masses over 64 ranks. With 63
// degrees of freedom the 99.9th percentile of chi-squared is ~103, so a
// sound sampler stays far below the 140 failure bar while real skew
// bugs (off-by-one rank, un-normalized CDF) blow past it.
func TestZipfChiSquared(t *testing.T) {
	for _, skew := range []float64{0, 0.99, 1.5} {
		const ranks = 64
		const samples = 100_000
		z := NewZipf(ranks, skew)
		s := NewStream(0xC0FFEE)
		var counts [ranks]int
		for i := 0; i < samples; i++ {
			r := z.Sample(s)
			if r < 0 || r >= ranks {
				t.Fatalf("skew %v: sample %d out of range", skew, r)
			}
			counts[r]++
		}
		var chi2 float64
		for r := 0; r < ranks; r++ {
			expect := z.prob(r) * samples
			if expect <= 0 {
				t.Fatalf("skew %v: rank %d has non-positive mass", skew, r)
			}
			d := float64(counts[r]) - expect
			chi2 += d * d / expect
		}
		if chi2 > 140 {
			t.Fatalf("skew %v: chi-squared %.1f over 63 dof — sampler does not match its own distribution", skew, chi2)
		}
		if skew > 0 && counts[0] <= counts[ranks-1] {
			t.Fatalf("skew %v: rank 0 (%d) not hotter than rank %d (%d)", skew, counts[0], ranks-1, counts[ranks-1])
		}
	}
}

// With skew 0 every rank has identical mass.
func TestZipfUniformAtZeroSkew(t *testing.T) {
	z := NewZipf(10, 0)
	for r := 0; r < 10; r++ {
		if math.Abs(z.prob(r)-0.1) > 1e-12 {
			t.Fatalf("rank %d mass %v, want 0.1", r, z.prob(r))
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	var h Hist
	for v := uint64(1); v <= 1000; v++ {
		h.Add(v)
	}
	if h.Count() != 1000 {
		t.Fatalf("count %d", h.Count())
	}
	// Bucket upper bounds overestimate by at most the bucket width
	// (1/32 relative above the linear range).
	p50 := h.Quantile(0.50)
	if p50 < 500 || p50 > 532 {
		t.Fatalf("p50 = %d, want ~500", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 990 || p99 > 1024 {
		t.Fatalf("p99 = %d, want ~990", p99)
	}
	if got := h.Quantile(0); got < 1 || got > 2 {
		t.Fatalf("p0 = %d, want ~1", got)
	}
}

func TestHistMergeEncodeDecode(t *testing.T) {
	var a, b Hist
	s := NewStream(5)
	for i := 0; i < 5000; i++ {
		a.Add(s.Next() % 1_000_000)
		b.Add(s.Next() % 300)
	}
	var m Hist
	m.Merge(&a)
	m.Merge(&b)
	if m.Count() != a.Count()+b.Count() || m.sum != a.sum+b.sum {
		t.Fatal("merge lost mass")
	}
	blob := m.Encode(nil)
	var d Hist
	rest, ok := d.Decode(blob)
	if !ok || len(rest) != 0 {
		t.Fatalf("decode failed (ok=%v, %d trailing bytes)", ok, len(rest))
	}
	if d.Count() != m.Count() || d.sum != m.sum || d.Quantile(0.95) != m.Quantile(0.95) {
		t.Fatal("decode round-trip changed the histogram")
	}
	if _, ok := d.Decode(blob[:10]); ok {
		t.Fatal("truncated blob decoded")
	}
}

// Every representable value must land in a bucket whose recorded upper
// bound is >= the value, and bucket indexes must be monotone in v —
// the quantile overestimate-never-underestimate contract.
func TestHistBucketMonotone(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 63, 64, 65, 127, 128, 1 << 12, 1<<40 + 12345, math.MaxUint64 >> 1} {
		i := bucketOf(v)
		if i < prev {
			t.Fatalf("bucket index not monotone at %d", v)
		}
		prev = i
		if ub := bucketMax(i); ub < v {
			t.Fatalf("value %d lands in bucket %d with upper bound %d", v, i, ub)
		}
	}
}

// The guide table only narrows the search: for every table size around
// a power of two and every skew, the guided rank of a draw must be the
// first cdf entry >= u that a search over the whole table finds —
// including draws that land exactly on a cell boundary g/G or exactly on
// a cdf entry, where an off-by-one in either guide bound would show.
func TestZipfGuideMatchesSearch(t *testing.T) {
	full := func(z *Zipf, u float64) int {
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
	for _, n := range []int{1, 2, 3, 7, 8192, 8193} {
		for _, skew := range []float64{0, 0.99, 3} {
			z := NewZipf(n, skew)
			var us []float64
			for g := 0; g < len(z.guide)-1; g++ {
				us = append(us, float64(g)/z.cells)
			}
			for _, c := range z.cdf {
				if c < 1 {
					us = append(us, c, math.Nextafter(c, 0), math.Nextafter(c, 1))
				}
			}
			s := NewStream(uint64(n) ^ math.Float64bits(skew))
			for i := 0; i < 50_000; i++ {
				us = append(us, s.uniform())
			}
			for _, u := range us {
				if got, want := z.rank(u), full(z, u); got != want {
					t.Fatalf("n=%d skew=%v u=%v: guided rank %d, full search %d", n, skew, u, got, want)
				}
			}
		}
	}
}

func BenchmarkZipfSample(b *testing.B) {
	z, s := NewZipf(8192, 0.99), NewStream(1)
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += z.Sample(s)
	}
	if sink < 0 {
		b.Fatal(sink)
	}
}

// Samples at or above 2^63 ns saturate into the last bucket instead of
// indexing past the array.
func TestHistSaturates(t *testing.T) {
	var h Hist
	h.Add(1 << 63)
	h.Add(math.MaxUint64)
	if h.Count() != 2 {
		t.Fatalf("count %d, want 2", h.Count())
	}
	if got, want := h.Quantile(1), bucketMax(histBuckets-1); got != want {
		t.Fatalf("Quantile(1) = %d, want the last bucket's bound %d", got, want)
	}
}

// Decode must never panic, and a successful decode must consume exactly
// the bytes that re-encode the decoded histogram. The seed corpus is
// committed under testdata/fuzz/FuzzHistDecode: empty and short inputs,
// a blob one byte short, and a whole blob with trailing bytes.
func FuzzHistDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Hist
		rest, ok := d.Decode(data)
		if !ok {
			if len(rest) != len(data) {
				t.Fatalf("failed decode consumed %d bytes", len(data)-len(rest))
			}
			return
		}
		consumed := data[:len(data)-len(rest)]
		if enc := d.Encode(nil); !bytes.Equal(enc, consumed) {
			t.Fatalf("re-encode of %d consumed bytes differs (%d bytes)", len(consumed), len(enc))
		}
		d.Quantile(0.99)
		d.Mean()
	})
}

// prob returns rank k's probability mass (tests check the sampler
// against these).
func (z *Zipf) prob(k int) float64 {
	if k == 0 {
		return z.cdf[0]
	}
	return z.cdf[k] - z.cdf[k-1]
}
