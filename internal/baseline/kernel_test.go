package baseline

import (
	"math"
	"testing"

	"ivn/internal/core"
	"ivn/internal/radio"
	"ivn/internal/rng"
)

// Golden equivalence: the kernel-backed PeakReceivedPower must agree with
// the retained naive reference to ≤1e-9 relative error on randomized
// carrier sets — including degenerate same-frequency sets and one-sample
// scans.

func randomCarrierSet(r *rng.Rand, n int, sameFreq bool) ([]radio.Carrier, []complex128) {
	cs := make([]radio.Carrier, n)
	chans := make([]complex128, n)
	f0 := 915e6
	for i := range cs {
		freq := f0
		if !sameFreq {
			freq = f0 + float64(r.Intn(200))
		}
		cs[i] = radio.Carrier{
			Freq:      freq,
			Phase:     r.Phase(),
			Amplitude: 0.5 + r.Float64(),
		}
		chans[i] = r.UnitPhasor()
	}
	return cs, chans
}

func TestKernelPeakMatchesNaive(t *testing.T) {
	r := rng.New(21)
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(12)
		sameFreq := trial%4 == 3
		cs, chans := randomCarrierSet(r, n, sameFreq)
		for _, samples := range []int{1, 4, 16, 1000, 4096} {
			want, err := naivePeakReceivedPower(cs, chans, 1.0, samples)
			if err != nil {
				t.Fatal(err)
			}
			got, err := PeakReceivedPower(cs, chans, 1.0, samples)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-9*(1+want) {
				t.Fatalf("trial %d samples %d (sameFreq=%t): kernel %v, naive %v",
					trial, samples, sameFreq, got, want)
			}
		}
	}
}

func TestKernelPeakSingleSampleBitIdentical(t *testing.T) {
	// At samples=1 both paths evaluate the t=0 sum from the same
	// coefficients, so the results must match exactly, not just to 1e-9 —
	// the experiment harness scans blind/MRT baselines this way.
	r := rng.New(22)
	for trial := 0; trial < 20; trial++ {
		cs, chans := randomCarrierSet(r, 1+r.Intn(10), trial%2 == 0)
		want, err := naivePeakReceivedPower(cs, chans, 1.0, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := PeakReceivedPower(cs, chans, 1.0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: kernel %v != naive %v at samples=1", trial, got, want)
		}
	}
}

func TestRefinedPeakMatchesFullScan(t *testing.T) {
	// CIB-like plans: the coarse grid over-resolves the beat envelope, so
	// the refined scan must return exactly the full fine-grid answer.
	r := rng.New(23)
	offsets := core.PaperOffsets()
	for trial := 0; trial < 25; trial++ {
		cs, chans := randomCarrierSet(r, len(offsets), false)
		for j := range cs {
			cs[j].Freq = 915e6 + offsets[j]
		}
		full, err := PeakReceivedPower(cs, chans, 1.0, 8192)
		if err != nil {
			t.Fatal(err)
		}
		refined, err := PeakReceivedPowerRefined(cs, chans, 1.0, 2048, 8192)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(refined-full) > 1e-12*(1+full) {
			t.Fatalf("trial %d: refined %v, full %v", trial, refined, full)
		}
	}
}

func TestRefinedPeakValidation(t *testing.T) {
	cs, chans := randomCarrierSet(rng.New(24), 4, false)
	if _, err := PeakReceivedPowerRefined(cs, chans[:2], 1.0, 16, 64); err == nil {
		t.Fatal("channel mismatch accepted")
	}
	if _, err := PeakReceivedPowerRefined(cs, chans, 0, 16, 64); err == nil {
		t.Fatal("zero duration accepted")
	}
	if p, err := PeakReceivedPowerRefined(nil, nil, 1.0, 16, 64); err != nil || p != 0 {
		t.Fatal("empty set should give 0")
	}
	// Non-divisible coarse spec falls back to the full scan.
	full, err := PeakReceivedPower(cs, chans, 1.0, 100)
	if err != nil {
		t.Fatal(err)
	}
	got, err := PeakReceivedPowerRefined(cs, chans, 1.0, 33, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got != full {
		t.Fatalf("fallback %v != full %v", got, full)
	}
}

func BenchmarkPeakReceivedPowerRefined(b *testing.B) {
	r := rng.New(1)
	offsets := core.PaperOffsets()
	cs, _ := BlindArray(10, 915e6, 1, r)
	for j := range cs {
		cs[j].Freq = 915e6 + offsets[j]
	}
	chans := randomChans(10, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PeakReceivedPowerRefined(cs, chans, 1, 2048, 8192); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNaivePeakReceivedPower(b *testing.B) {
	r := rng.New(1)
	offsets := core.PaperOffsets()
	cs, _ := BlindArray(10, 915e6, 1, r)
	for j := range cs {
		cs[j].Freq = 915e6 + offsets[j]
	}
	chans := randomChans(10, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := naivePeakReceivedPower(cs, chans, 1, 4096); err != nil {
			b.Fatal(err)
		}
	}
}

// naivePeakReceivedPower is the direct evaluation of PeakReceivedPower —
// one Sincos per carrier per sample on the same half-open [0, duration)
// grid: the golden reference the kernel-backed scans are tested against.
func naivePeakReceivedPower(carriers []radio.Carrier, chans []complex128, duration float64, samples int) (float64, error) {
	if p, done, err := scanSpec(carriers, chans, duration, samples); done {
		return p, err
	}
	// Reference frequency: the first carrier; only offsets matter.
	f0 := carriers[0].Freq
	best := 0.0
	for k := 0; k < samples; k++ {
		t := duration * float64(k) / float64(samples)
		var re, im float64
		for i, c := range carriers {
			ph := 2*math.Pi*(c.Freq-f0)*t + c.Phase
			s, cs := math.Sincos(ph)
			v := complex(c.Amplitude*cs, c.Amplitude*s) * chans[i]
			re += real(v)
			im += imag(v)
		}
		if p := re*re + im*im; p > best {
			best = p
		}
	}
	return best, nil
}
