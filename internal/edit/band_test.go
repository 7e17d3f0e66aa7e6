package edit

import (
	"testing"

	"dnastore/internal/dna"
	"dnastore/internal/xrand"
)

// TestBandMatchesDP holds Within to WithinDP on random and related pairs in
// both argument orders, for every threshold across the band kernel's
// one-word limit (k = 0..70, so both sides of the band/column split at
// 63/64), with length gaps at and just past k, empty sides, and patterns
// longer than three words.
func TestBandMatchesDP(t *testing.T) {
	var s Scratch
	rng := xrand.New(41)
	check := func(a, b dna.Seq, k int) {
		t.Helper()
		for _, p := range [2][2]dna.Seq{{a, b}, {b, a}} {
			wd, wok := s.WithinDP(p[0], p[1], k)
			if gd, gok := s.Within(p[0], p[1], k); gd != wd || gok != wok {
				t.Fatalf("Within(len %d,%d, k=%d) = (%d,%v), DP (%d,%v)",
					len(p[0]), len(p[1]), k, gd, gok, wd, wok)
			}
		}
	}
	mutate := func(a dna.Seq, edits int) dna.Seq {
		b := a.Clone()
		for e := 0; e < edits && len(b) > 0; e++ {
			i := rng.Intn(len(b))
			switch rng.Intn(3) {
			case 0:
				b[i] = dna.Base(rng.Intn(4))
			case 1:
				b = append(b[:i], b[i+1:]...)
			default:
				b = append(b[:i], append(dna.Seq{dna.Base(rng.Intn(4))}, b[i:]...)...)
			}
		}
		return b
	}
	for _, n := range []int{0, 1, 2, 7, 63, 64, 65, 128, 193, 260} {
		for k := 0; k <= 70; k++ {
			a := dna.Random(rng, n)
			check(a, mutate(a, rng.Intn(k+3)), k)
			check(a, dna.Random(rng, rng.Intn(n+k+2)), k)
			// Length gaps of exactly k and k+1.
			check(a, dna.Random(rng, n+k), k)
			check(a, dna.Random(rng, n+k+1), k)
			check(a, append(a.Clone(), dna.Random(rng, k)...), k)
			check(a, append(a.Clone(), dna.Random(rng, k+1)...), k)
		}
	}
	check(nil, nil, 0)
}

// BenchmarkConfirmBand128 times Within on the clustering confirmation
// shape: 128-nt reads at k = 35 (the band kernel), half unrelated pairs
// (rejections) and half pairs of common origin about 12 edits apart.
func BenchmarkConfirmBand128(b *testing.B) {
	rng := xrand.New(3)
	var xs, ys []dna.Seq
	for i := 0; i < 64; i++ {
		x := dna.Random(rng, 128)
		y := dna.Random(rng, 128)
		if i%2 == 0 {
			y = x.Clone()
			for e := 0; e < 12; e++ {
				y[rng.Intn(len(y))] = dna.Base(rng.Intn(4))
			}
		}
		xs, ys = append(xs, x), append(ys, y)
	}
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Within(xs[i&63], ys[i&63], 35)
	}
}
