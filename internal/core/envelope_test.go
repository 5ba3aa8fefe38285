package core

import (
	"math"
	"testing"
	"testing/quick"

	"ivn/internal/rng"
)

func TestEnvelopeAlignedPeakIsN(t *testing.T) {
	// At t where all phases align, Y = N (paper §3.4: "The maximum
	// achievable peak in CIB is N").
	offsets := []float64{0, 7, 20, 49}
	betas := []float64{0, 0, 0, 0}
	if got := Envelope(offsets, betas, 0); math.Abs(got-4) > 1e-12 {
		t.Fatalf("aligned envelope = %v, want 4", got)
	}
}

func TestEnvelopeBoundedByN(t *testing.T) {
	r := rng.New(1)
	offsets := PaperOffsets()
	betas := make([]float64, len(offsets))
	for trial := 0; trial < 50; trial++ {
		drawBetas(betas, r)
		for _, tm := range []float64{0, 0.1, 0.25, 0.7, 0.99} {
			if y := Envelope(offsets, betas, tm); y > float64(len(offsets))+1e-9 {
				t.Fatalf("envelope %v exceeds N", y)
			}
		}
	}
}

func TestEnvelopePeriodicOneSecond(t *testing.T) {
	// Integer offsets ⇒ the envelope is 1-periodic (the cyclic-operation
	// constraint of §3.6).
	r := rng.New(2)
	offsets := PaperOffsets()
	betas := make([]float64, len(offsets))
	drawBetas(betas, r)
	for _, tm := range []float64{0.01, 0.37, 0.62} {
		a := Envelope(offsets, betas, tm)
		b := Envelope(offsets, betas, tm+1)
		if math.Abs(a-b) > 1e-6 {
			t.Fatalf("envelope not 1-periodic at t=%v: %v vs %v", tm, a, b)
		}
	}
}

func TestEnvelopeSeriesMatchesPointwise(t *testing.T) {
	r := rng.New(3)
	offsets := []float64{0, 13, 54, 121}
	betas := make([]float64, 4)
	drawBetas(betas, r)
	const n = 1000
	series := EnvelopeSeries(offsets, betas, 1.0, n, nil)
	for _, k := range []int{0, 1, 137, 500, 999} {
		tm := float64(k) / n
		want := Envelope(offsets, betas, tm)
		if math.Abs(series[k]-want) > 1e-6 {
			t.Fatalf("series[%d] = %v, pointwise = %v", k, series[k], want)
		}
	}
}

func TestEnvelopeSeriesReusesBuffer(t *testing.T) {
	buf := make([]float64, 256)
	out := EnvelopeSeries([]float64{0, 5}, []float64{0, 1}, 1, 256, buf)
	if &out[0] != &buf[0] {
		t.Fatal("EnvelopeSeries allocated despite sufficient capacity")
	}
}

func TestEnvelopeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	Envelope([]float64{0, 1}, []float64{0}, 0)
}

func TestPeakEnvelopeFindsAlignment(t *testing.T) {
	// With zero betas the peak (=N) is at t=0; with arbitrary betas and a
	// fine scan the peak must come close to N for a well-spread set.
	offsets := []float64{0, 7, 20, 49, 68}
	peak := PeakEnvelope(offsets, []float64{0, 0, 0, 0, 0}, 1, 4096)
	if math.Abs(peak-5) > 1e-9 {
		t.Fatalf("zero-phase peak = %v, want 5", peak)
	}
	if PeakEnvelope(nil, nil, 1, 10) != 0 {
		t.Fatal("empty set peak != 0")
	}
}

func TestExpectedPeakGrowsWithN(t *testing.T) {
	// The heart of Fig. 9: expected peak grows monotonically with the
	// number of antennas.
	all := PaperOffsets()
	prev := 0.0
	for n := 2; n <= 10; n++ {
		ep := serial(ExpectedPeak(all[:n], 40, 2048, rng.New(uint64(n)), nil))
		if ep <= prev {
			t.Fatalf("expected peak at N=%d (%v) not above N=%d (%v)", n, ep, n-1, prev)
		}
		prev = ep
	}
}

func TestExpectedPeakNearNForPaperSet(t *testing.T) {
	// "the blue curve corresponds to a set which can achieve 90% of the
	// optimal performance" — the published set should reach a large
	// fraction of N on average.
	offsets := PaperOffsets()
	ep := serial(ExpectedPeak(offsets, 60, 8192, rng.New(7), nil))
	// Pure-phase-model ground truth: ≈0.77·N for the 10-offset set (the
	// 5-offset prefix reaches ≈0.96·N, matching Fig. 6's best curve; the
	// extra gap at N=10 is closed in the full-system benches by
	// per-antenna channel-magnitude variation).
	if ep < 0.72*float64(len(offsets)) {
		t.Fatalf("paper offsets expected peak %v < 72%% of N=%d", ep, len(offsets))
	}
	if ep > float64(len(offsets)) {
		t.Fatalf("expected peak %v exceeds N", ep)
	}
	// The 5-carrier prefix should approach N much more closely.
	ep5 := serial(ExpectedPeak(offsets[:5], 60, 8192, rng.New(7), nil))
	if ep5 < 0.9*5 {
		t.Fatalf("5-offset expected peak %v < 90%% of 5", ep5)
	}
}

func TestExpectedPeakDegenerateInputs(t *testing.T) {
	if serial(ExpectedPeak(nil, 10, 10, rng.New(1), nil)) != 0 {
		t.Fatal("empty offsets")
	}
	if serial(ExpectedPeak([]float64{0, 1}, 0, 10, rng.New(1), nil)) != 0 {
		t.Fatal("zero trials")
	}
}

func TestPeakCDFBestVsWorstSeparation(t *testing.T) {
	// Fig. 6: a good frequency set stochastically dominates a bad one.
	// A clustered set (e.g. {0,1,2,3,4}) has highly correlated phasors and
	// a long envelope period structure; compare against the optimized
	// spread of the paper's first five offsets.
	good := []float64{0, 7, 20, 49, 68}
	bad := []float64{0, 1, 2, 3, 4}
	gs := serial(PeakCDF(good, 300, 2048, rng.New(11), nil))
	bs := serial(PeakCDF(bad, 300, 2048, rng.New(11), nil))
	var gm, bm float64
	for i := range gs {
		gm += gs[i]
		bm += bs[i]
	}
	gm /= float64(len(gs))
	bm /= float64(len(bs))
	if gm <= bm {
		t.Fatalf("good set mean peak power %v not above clustered set %v", gm, bm)
	}
	// All power samples bounded by N².
	for _, v := range append(gs, bs...) {
		if v > 25+1e-6 {
			t.Fatalf("peak power %v exceeds N²", v)
		}
	}
}

func TestFractionAboveBehavior(t *testing.T) {
	offsets := []float64{0, 7, 20}
	betas := []float64{0, 0, 0}
	// Above level 0 it is (almost) always above.
	if f := FractionAbove(offsets, betas, 0.001, 1, 4096); f < 0.95 {
		t.Fatalf("fraction above ≈0 level = %v", f)
	}
	// Above N it is never above.
	if f := FractionAbove(offsets, betas, 3.0001, 1, 4096); f != 0 {
		t.Fatalf("fraction above N = %v", f)
	}
	// Monotone decreasing in level.
	prev := 1.0
	for _, lvl := range []float64{0.5, 1, 1.5, 2, 2.5} {
		f := FractionAbove(offsets, betas, lvl, 1, 4096)
		if f > prev+1e-12 {
			t.Fatalf("fraction not monotone at level %v", lvl)
		}
		prev = f
	}
	if FractionAbove(nil, nil, 1, 1, 10) != 0 {
		t.Fatal("empty set fraction != 0")
	}
}

func TestExpectedConductionFractionPeakVsSteadyTradeoff(t *testing.T) {
	// A tighter frequency cluster holds the envelope above a moderate
	// threshold longer (wider beats), at the cost of scan speed — the
	// §3.7 trade the two-stage design exploits.
	tight := []float64{0, 1, 2}
	spread := []float64{0, 61, 127}
	level := 1.5 // half of N=3
	ft := serial(ExpectedConductionFraction(tight, level, 60, 4096, rng.New(5), nil))
	fs := serial(ExpectedConductionFraction(spread, level, 60, 4096, rng.New(5), nil))
	// Both operate; the comparison itself (tight ≥ spread) documents the
	// mechanism. Equal RNG stream makes this a paired comparison.
	if ft <= 0 || fs <= 0 {
		t.Fatalf("degenerate conduction fractions: %v, %v", ft, fs)
	}
	if ft < fs*0.8 {
		t.Fatalf("tight cluster fraction %v not competitive with spread %v", ft, fs)
	}
}

func TestValidateOffsets(t *testing.T) {
	if err := ValidateOffsets(PaperOffsets()); err != nil {
		t.Fatal(err)
	}
	cases := [][]float64{
		nil,
		{1, 2},     // missing 0
		{0, 2, 2},  // not strictly increasing
		{0, 5.5},   // non-integer
		{0, -3},    // negative
		{0, 10, 5}, // unsorted
	}
	for i, c := range cases {
		if err := ValidateOffsets(c); err == nil {
			t.Errorf("case %d: %v accepted", i, c)
		}
	}
}

func TestQuickEnvelopeBounds(t *testing.T) {
	r := rng.New(31)
	f := func(nRaw uint8, tRaw uint16) bool {
		n := int(nRaw%9) + 2
		offsets := PaperOffsets()[:n]
		betas := make([]float64, n)
		drawBetas(betas, r)
		tm := float64(tRaw) / 65536
		y := Envelope(offsets, betas, tm)
		return y >= 0 && y <= float64(n)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEnvelopeSeries10Carriers(b *testing.B) {
	offsets := PaperOffsets()
	betas := make([]float64, len(offsets))
	drawBetas(betas, rng.New(1))
	buf := make([]float64, 8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = EnvelopeSeries(offsets, betas, 1, 8192, buf)
	}
}

func BenchmarkExpectedPeak(b *testing.B) {
	offsets := PaperOffsets()
	for i := 0; i < b.N; i++ {
		serial(ExpectedPeak(offsets, 10, 2048, rng.New(uint64(i)), nil))
	}
}
