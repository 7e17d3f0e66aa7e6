package cluster

import (
	"context"
	"testing"

	"dnastore/internal/edit"
	"dnastore/internal/xrand"
)

// TestAutoThresholdsParallelDeterministic pins the calibration's determinism
// contract: for a fixed seed, autoThresholds must return identical
// (thetaLow, thetaHigh) and a bit-identical histogram at every worker count,
// in both signature modes — the parallel distance rows are merged in probe
// order, so scheduling must never leak into the result.
func TestAutoThresholdsParallelDeterministic(t *testing.T) {
	reads, _ := makePool(21, 120, 110, 8, 0.06)
	ctx := context.Background()
	for _, mode := range []SignatureMode{QGram, WGram} {
		grams := newGramSet(xrand.New(23), mode, 48, 4)
		wantLow, wantHigh, wantHist := autoThresholds(ctx, reads, grams, xrand.New(29), 1)
		for _, workers := range []int{2, 3, 8} {
			low, high, hist := autoThresholds(ctx, reads, grams, xrand.New(29), workers)
			if low != wantLow || high != wantHigh {
				t.Fatalf("mode %v workers %d: thresholds (%d,%d), serial (%d,%d)",
					mode, workers, low, high, wantLow, wantHigh)
			}
			if len(hist) != len(wantHist) {
				t.Fatalf("mode %v workers %d: hist len %d, serial %d",
					mode, workers, len(hist), len(wantHist))
			}
			for d := range hist {
				if hist[d] != wantHist[d] {
					t.Fatalf("mode %v workers %d: hist[%d] = %d, serial %d",
						mode, workers, d, hist[d], wantHist[d])
				}
			}
		}
	}
}

// TestAutoThresholdsWrapperMatchesParallel pins that the exported serial
// entry point is the workers=1 case of the same code path.
func TestAutoThresholdsWrapperMatchesParallel(t *testing.T) {
	reads, _ := makePool(25, 80, 110, 6, 0.06)
	grams := newGramSet(xrand.New(27), QGram, 48, 4)
	aLow, aHigh, _ := AutoThresholds(reads, grams, xrand.New(31))
	bLow, bHigh, _ := autoThresholds(context.Background(), reads, grams, xrand.New(31), 4)
	if aLow != bLow || aHigh != bHigh {
		t.Fatalf("wrapper (%d,%d) vs parallel (%d,%d)", aLow, aHigh, bLow, bHigh)
	}
}

// TestAutoEditThresholdWorkerIdentity pins the parallel edit-threshold
// calibration: both phases' values are sorted before use, so the threshold
// is the same at every worker count, with and without the q-gram screen.
func TestAutoEditThresholdWorkerIdentity(t *testing.T) {
	reads, _ := makePool(33, 150, 128, 10, 0.06)
	pres := presenceSets(context.Background(), reads, 1)
	for _, filtered := range []bool{true, false} {
		want := -1
		for _, workers := range []int{1, 2, 4} {
			es := make([]edit.Scratch, workers)
			got := autoEditThresholdOpt(context.Background(), reads, pres, 128, xrand.Derive(35, 0xc0f3), es, filtered)
			if want < 0 {
				want = got
			} else if got != want {
				t.Fatalf("filtered=%v workers %d: threshold %d, workers 1 gave %d", filtered, workers, got, want)
			}
		}
	}
}
