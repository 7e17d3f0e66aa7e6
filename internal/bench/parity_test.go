package bench

import (
	"testing"

	"dnastore/internal/align"
	"dnastore/internal/dna"
	"dnastore/internal/edit"
	"dnastore/internal/xrand"
)

// mutate returns a noisy copy of s: each position suffers a substitution,
// insertion or deletion with probability p. Enough noise makes the POA graph
// branch heavily, which is the structure the parity tests need to cover.
func mutate(rng *xrand.RNG, s dna.Seq, p float64) dna.Seq {
	out := make(dna.Seq, 0, len(s)+4)
	for _, b := range s {
		switch {
		case rng.Float64() < p/3:
			out = append(out, dna.Base(rng.Intn(4))) // substitution
		case rng.Float64() < p/3:
			// deletion: skip the base
		case rng.Float64() < p/3:
			out = append(out, b, dna.Base(rng.Intn(4))) // insertion after
		default:
			out = append(out, b)
		}
	}
	return out
}

// TestEditKernelParityWithSeed is the edit-kernel parity property: the
// scratch-reusing kernels must be bit-identical to the reference
// implementations on random pairs and on the edge shapes (empty, singleton,
// first-base divergence). Distances and threshold verdicts are held to the
// row and banded DPs internal/edit keeps as references (computed on a
// separate Scratch); Align's op sequence is held to the frozen seed
// traceback in reference_test.go.
func TestEditKernelParityWithSeed(t *testing.T) {
	rng := xrand.New(21)
	var s, ref edit.Scratch
	check := func(a, b dna.Seq, k int) {
		t.Helper()
		dist := ref.LevenshteinDP(a, b)
		if got := s.Levenshtein(a, b); got != dist {
			t.Fatalf("Levenshtein(%v,%v) = %d, DP %d", a, b, got, dist)
		}
		gd, gok := s.Within(a, b, k)
		wd, wok := ref.WithinDP(a, b, k)
		if gd != wd || gok != wok {
			t.Fatalf("Within(%v,%v,%d) = (%d,%v), DP (%d,%v)", a, b, k, gd, gok, wd, wok)
		}
		// Bit-parallel kernels, held to the same DP references.
		if got := s.LevenshteinBP(a, b); got != dist {
			t.Fatalf("LevenshteinBP(%v,%v) = %d, DP %d", a, b, got, dist)
		}
		bd, bok := s.WithinBP(a, b, k)
		if bd != wd || bok != wok {
			t.Fatalf("WithinBP(%v,%v,%d) = (%d,%v), DP (%d,%v)", a, b, k, bd, bok, wd, wok)
		}
		gops, gc := s.Align(a, b)
		wops, wc := refAlign(a, b)
		if gc != wc || len(gops) != len(wops) {
			t.Fatalf("Align(%v,%v) cost %d/%d len %d/%d", a, b, gc, wc, len(gops), len(wops))
		}
		for i := range gops {
			if gops[i] != wops[i] {
				t.Fatalf("Align(%v,%v) op %d: %v != seed %v", a, b, i, gops[i], wops[i])
			}
		}
	}
	check(nil, nil, 3)
	check(dna.Seq{dna.A}, nil, 3)
	check(nil, dna.Seq{dna.T}, 0)
	check(dna.Seq{dna.A}, dna.Seq{dna.C}, 1) // singleton, first-base divergence
	for trial := 0; trial < 300; trial++ {
		a := dna.Random(rng, rng.Intn(80))
		b := mutate(rng, a, 0.2)
		if trial%3 == 0 {
			b = dna.Random(rng, rng.Intn(80)) // unrelated pair
		}
		if trial%5 == 0 && len(a) > 0 && len(b) > 0 {
			b[0] = a[0] ^ 1 // force first-base divergence
		}
		check(a, b, rng.Intn(25))
	}
}

// TestPOAParityWithSeed: consensus through the scratch-reusing graph (both
// fresh and reused across clusters) must be byte-identical to the frozen
// seed POA on branching graphs built from noisy read clusters.
func TestPOAParityWithSeed(t *testing.T) {
	rng := xrand.New(22)
	reused := align.NewGraph()
	for trial := 0; trial < 60; trial++ {
		refLen := 10 + rng.Intn(70)
		ref := dna.Random(rng, refLen)
		reads := make([]dna.Seq, 2+rng.Intn(7))
		for i := range reads {
			reads[i] = mutate(rng, ref, 0.25)
		}
		if trial%7 == 0 {
			reads = append(reads, nil) // empty read mixed in
		}
		if trial%11 == 0 {
			reads = reads[:1] // singleton cluster
		}
		want := refConsensus(reads, refLen)
		if got := align.Consensus(reads, refLen); !got.Equal(want) {
			t.Fatalf("trial %d: fresh consensus %v != seed %v", trial, got, want)
		}
		if got := reused.ConsensusOf(reads, refLen); !got.Equal(want) {
			t.Fatalf("trial %d: reused consensus %v != seed %v", trial, got, want)
		}
	}
}
