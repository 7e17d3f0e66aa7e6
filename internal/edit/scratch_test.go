package edit

import (
	"testing"

	"dnastore/internal/dna"
	"dnastore/internal/xrand"
)

// TestWithinHugeThresholdClamped is the regression test for the band-width
// bug: a caller-supplied threshold far beyond the sequence lengths used to
// size a 2k+1 band (gigabytes at k = 1<<30). The clamp must keep the result
// exact and the call cheap.
func TestWithinHugeThresholdClamped(t *testing.T) {
	a := seq("ACGTACGTACGT")
	b := seq("ACGTTCGTACG")
	want := Levenshtein(a, b)
	for _, k := range []int{1 << 30, 1<<30 + 7, 1 << 20, len(a) + 1} {
		d, ok := Within(a, b, k)
		if !ok || d != want {
			t.Fatalf("Within(k=%d) = (%d,%v), want (%d,true)", k, d, ok, want)
		}
	}
	// Empty sides with a huge k exercise the pre-band early returns.
	if d, ok := Within(nil, b, 1<<30); !ok || d != len(b) {
		t.Fatalf("Within(nil,b,1<<30) = (%d,%v)", d, ok)
	}
	var s Scratch
	if d, ok := s.Within(a, b, 1<<30); !ok || d != want {
		t.Fatalf("Scratch.Within(k=1<<30) = (%d,%v), want (%d,true)", d, ok, want)
	}
}

// TestScratchReuseMatchesFreshCalls interleaves many differently-sized calls
// on one Scratch and checks each against a fresh-allocation call: reused
// buffers must never leak state from a previous comparison. Includes the
// edge shapes the kernels special-case: empty, singleton, first-base
// divergence, and equal sequences.
func TestScratchReuseMatchesFreshCalls(t *testing.T) {
	rng := xrand.New(11)
	var s Scratch
	pairs := [][2]dna.Seq{
		{nil, nil},
		{seq("A"), nil},
		{nil, seq("T")},
		{seq("A"), seq("C")},                   // diverge at the first base
		{seq("ACGTACGT"), seq("TCGTACGT")},     // diverge at the first base, long
		{seq("ACGTACGTAC"), seq("ACGTACGTAC")}, // equal
		{seq("GATTACA"), seq("GCATGCT")},
	}
	for trial := 0; trial < 400; trial++ {
		a := dna.Random(rng, rng.Intn(60))
		b := dna.Random(rng, rng.Intn(60))
		pairs = append(pairs[:0], pairs[:7]...)
		pairs = append(pairs, [2]dna.Seq{a, b})
		for _, p := range pairs {
			a, b := p[0], p[1]
			if got, want := s.Levenshtein(a, b), Levenshtein(a, b); got != want {
				t.Fatalf("Scratch.Levenshtein(%v,%v) = %d, want %d", a, b, got, want)
			}
			k := rng.Intn(20)
			gd, gok := s.Within(a, b, k)
			wd, wok := Within(a, b, k)
			if gd != wd || gok != wok {
				t.Fatalf("Scratch.Within(%v,%v,%d) = (%d,%v), want (%d,%v)", a, b, k, gd, gok, wd, wok)
			}
			gops, gc := s.Align(a, b)
			wops, wc := Align(a, b)
			if gc != wc || len(gops) != len(wops) {
				t.Fatalf("Scratch.Align(%v,%v) cost %d/%d ops %d/%d", a, b, gc, wc, len(gops), len(wops))
			}
			for i := range gops {
				if gops[i] != wops[i] {
					t.Fatalf("Scratch.Align(%v,%v) op %d: %v != %v", a, b, i, gops[i], wops[i])
				}
			}
		}
	}
}

// TestScratchStopsAllocating pins the point of the refactor: after warmup a
// Scratch-threaded kernel performs zero allocations per comparison. The
// 128-nt reads at k = 35 are the clustering confirmation shape at 6 % error.
func TestScratchStopsAllocating(t *testing.T) {
	rng := xrand.New(12)
	a := dna.Random(rng, 120)
	b := dna.Random(rng, 120)
	r1, r2 := dna.Random(rng, 128), dna.Random(rng, 128)
	var s Scratch
	s.Levenshtein(a, b) // warm the buffers
	s.Within(a, b, 12)
	s.Within(r1, r2, 35)
	s.Align(a, b)
	if n := testing.AllocsPerRun(50, func() { s.Levenshtein(a, b) }); n > 0 {
		t.Errorf("Scratch.Levenshtein allocates %.1f/op after warmup", n)
	}
	if n := testing.AllocsPerRun(50, func() { s.Within(a, b, 12) }); n > 0 {
		t.Errorf("Scratch.Within allocates %.1f/op after warmup", n)
	}
	if n := testing.AllocsPerRun(50, func() { s.Within(r1, r2, 35) }); n > 0 {
		t.Errorf("Scratch.Within (128 nt, k = 35) allocates %.1f/op after warmup", n)
	}
	if n := testing.AllocsPerRun(50, func() { s.Align(a, b) }); n > 0 {
		t.Errorf("Scratch.Align allocates %.1f/op after warmup", n)
	}
}

func BenchmarkScratchLevenshtein120(b *testing.B) {
	rng := xrand.New(1)
	x := dna.Random(rng, 120)
	y := dna.Random(rng, 120)
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Levenshtein(x, y)
	}
}

func BenchmarkScratchWithin120K10(b *testing.B) {
	rng := xrand.New(1)
	x := dna.Random(rng, 120)
	y := x.Clone()
	y[5] = y[5] ^ 1
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Within(x, y, 10)
	}
}
