package edit

import (
	"testing"

	"dnastore/internal/dna"
	"dnastore/internal/xrand"
)

// calibrationBound is cluster threshold calibration's phase-1 bound on
// 128-nt reads (readLen·3/5): the one hot-path threshold above the band
// kernel's one-word limit, so Within serves it with the column kernel.
const calibrationBound = 128 * 3 / 5

// adversarialPairs returns the shapes most likely to break a bit-vector
// kernel: block-boundary lengths (63/64/65, 127/128/129), homopolymers
// (carry chains through the whole word in the D0 addition), shifted copies
// (long diagonal runs), maximally-distant sequences, and calibration's
// shape: two unrelated 128-nt reads (checked at calibrationBound).
func adversarialPairs() [][2]dna.Seq {
	rng := xrand.New(31)
	homop := func(b dna.Base, n int) dna.Seq {
		s := make(dna.Seq, n)
		for i := range s {
			s[i] = b
		}
		return s
	}
	var pairs [][2]dna.Seq
	for _, n := range []int{1, 2, 63, 64, 65, 127, 128, 129, 192, 193, 300} {
		r := dna.Random(rng, n)
		pairs = append(pairs,
			[2]dna.Seq{r, r.Clone()},                     // identical
			[2]dna.Seq{r, r[:n-n/4]},                     // prefix (pure deletions)
			[2]dna.Seq{r, append(r[1:].Clone(), r[0])},   // rotated by one
			[2]dna.Seq{homop(dna.A, n), homop(dna.T, n)}, // all-substitution
			[2]dna.Seq{homop(dna.C, n), dna.Random(rng, n)},
			[2]dna.Seq{r, dna.Random(rng, n/2+1)}, // big length gap
		)
	}
	pairs = append(pairs, [2]dna.Seq{nil, nil}, [2]dna.Seq{nil, homop(dna.G, 70)},
		[2]dna.Seq{dna.Random(rng, 128), dna.Random(rng, 128)})
	return pairs
}

// TestBitParallelMatchesDP is the core parity property: on random and
// adversarial pairs, across one-word and blocked patterns, Levenshtein must
// equal LevenshteinDP and Within must return the same (distance, verdict)
// as WithinDP for every threshold: k around the true distance, k = 0,
// calibrationBound, and hostile huge k, on both sides of the band kernel's
// one-word limit.
func TestBitParallelMatchesDP(t *testing.T) {
	var s Scratch
	check := func(a, b dna.Seq) {
		t.Helper()
		want := s.LevenshteinDP(a, b)
		if got := s.Levenshtein(a, b); got != want {
			t.Fatalf("Levenshtein(%v,%v) = %d, DP %d", a, b, got, want)
		}
		for _, k := range []int{0, 1, 2, want - 1, want, want + 1, want * 2, calibrationBound, 1 << 30} {
			if k < 0 {
				continue
			}
			wd, wok := s.WithinDP(a, b, k)
			gd, gok := s.Within(a, b, k)
			if gd != wd || gok != wok {
				t.Fatalf("Within(%v,%v,%d) = (%d,%v), DP (%d,%v)", a, b, k, gd, gok, wd, wok)
			}
		}
	}
	for _, p := range adversarialPairs() {
		check(p[0], p[1])
	}
	rng := xrand.New(32)
	for trial := 0; trial < 400; trial++ {
		// Lengths spread across the single-word/blocked boundary and the
		// 2/3/4-block transitions.
		a := dna.Random(rng, rng.Intn(260))
		b := dna.Random(rng, rng.Intn(260))
		if trial%2 == 0 && len(a) > 0 {
			// Related pair: mutate a lightly so distances are small and the
			// threshold sweep straddles the verdict boundary.
			b = a.Clone()
			for e := 0; e < 1+rng.Intn(8); e++ {
				b[rng.Intn(len(b))] = dna.Base(rng.Intn(4))
			}
		}
		check(a, b)
	}
}

// TestWithinBPNegativeK pins the guards ahead of the bit-parallel kernels
// to WithinDP's answers: negative k, empty sides and a length gap past k.
func TestWithinBPNegativeK(t *testing.T) {
	if _, ok := Within(seq("ACGT"), seq("ACGT"), -1); ok {
		t.Fatal("negative k accepted")
	}
	if d, ok := Within(nil, nil, 0); !ok || d != 0 {
		t.Fatal("empty-empty should be (0, true)")
	}
	if d, ok := Within(seq("AAA"), nil, 3); !ok || d != 3 {
		t.Fatalf("Within(AAA, nil, 3) = (%d,%v), want (3,true)", d, ok)
	}
	if _, ok := Within(seq("AAAAAA"), nil, 3); ok {
		t.Fatal("length gap > k accepted")
	}
	var s Scratch
	for _, c := range []struct {
		a, b dna.Seq
		k    int
	}{{seq("ACGT"), seq("ACGT"), -1}, {nil, nil, 0}, {seq("AAA"), nil, 3}, {seq("AAAAAA"), nil, 3}} {
		d, ok := Within(c.a, c.b, c.k)
		wd, wok := s.WithinDP(c.a, c.b, c.k)
		if ok != wok || (ok && d != wd) {
			t.Errorf("Within(%v,%v,%d) = (%d,%v), WithinDP = (%d,%v)", c.a, c.b, c.k, d, ok, wd, wok)
		}
	}
}

// TestBitParallelStopsAllocating guards the kernels' steady state: after
// warmup, every Within and Levenshtein shape must allocate nothing per
// comparison when called through a Scratch. The shapes cover the band
// kernel, the thresholded column kernel (calibration's 128-nt reads at
// calibrationBound, and a 5-block pattern) and the full distance.
func TestBitParallelStopsAllocating(t *testing.T) {
	rng := xrand.New(33)
	short := dna.Random(rng, 60)
	long := dna.Random(rng, 300) // 5-block pattern
	long2 := dna.Random(rng, 300)
	read := dna.Random(rng, 128)
	read2 := dna.Random(rng, 128)
	short2 := short.Clone()
	short2[7] ^= 1
	var s Scratch
	cases := map[string]func(){
		"Within/band":          func() { s.Within(short, short2, 12) },
		"Within/calibration":   func() { s.Within(read, read2, calibrationBound) },
		"Within/blocked":       func() { s.Within(long, long2, 80) },
		"Levenshtein/one-word": func() { s.Levenshtein(short, short2) },
		"Levenshtein/blocked":  func() { s.Levenshtein(long, long2) },
	}
	for _, f := range cases {
		f()
	}
	for name, f := range cases {
		if n := testing.AllocsPerRun(100, f); n > 0 {
			t.Errorf("%s allocates %.1f/op after warmup", name, n)
		}
	}
}

func BenchmarkWithinDP150(b *testing.B) {
	benchWithin(b, 150, func(s *Scratch, x, y dna.Seq, k int) { s.WithinDP(x, y, k) })
}
func BenchmarkWithinDP300(b *testing.B) {
	benchWithin(b, 300, func(s *Scratch, x, y dna.Seq, k int) { s.WithinDP(x, y, k) })
}

func benchWithin(b *testing.B, n int, f func(s *Scratch, x, y dna.Seq, k int)) {
	rng := xrand.New(1)
	x := dna.Random(rng, n)
	y := x.Clone()
	for e := 0; e < n/20; e++ {
		y[rng.Intn(n)] = dna.Base(rng.Intn(4))
	}
	var s Scratch
	k := n / 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(&s, x, y, k)
	}
}
