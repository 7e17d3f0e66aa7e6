package cluster

import (
	"context"
	"sort"

	"dnastore/internal/dna"
	"dnastore/internal/edit"
	"dnastore/internal/exec"
	"dnastore/internal/xrand"
)

// autoEditThreshold picks the merge-confirmation edit-distance threshold
// from the data, in the same spirit as AutoThresholds: sample probe reads,
// compute banded edit distances to a sample, and place the threshold midway
// between the nearest-neighbour mode (same-strand pairs) and the median
// (different-strand pairs). A fixed fraction of the read length is unsafe:
// for short strands the two distributions sit close together, and for long
// ones it wastes the available gap. pres holds every read's presence set
// (presenceSets) and es one edit scratch per worker.
func autoEditThreshold(ctx context.Context, reads []dna.Seq, pres []gramPresence, readLen int, rng *xrand.RNG, es []edit.Scratch) int {
	return autoEditThresholdOpt(ctx, reads, pres, readLen, rng, es, true)
}

// calibPhase1Pairs is the number of sample partners each probe is compared
// against for the different-strand median.
const calibPhase1Pairs = 40

// autoEditThresholdOpt is autoEditThreshold with the q-gram counting filter
// switchable. filtered=false is the reference: phase 2 scans every pair with
// a banded edit-distance call. filtered=true screens pairs with the presence
// form of the q-gram counting lemma (Ukkonen): an edit operation touches at
// most presQ gram positions of a, the positions touched by different
// vanished codes are disjoint, and a distinct code of a vanishes only if all
// its occurrences are touched — so if ed(a,b) <= k, at most k*presQ
// distinct codes of a are absent from b and the presence sets share at
// least da - k*presQ codes (da = a's distinct-gram count). The screen is
// four AND+popcount words per pair over the shared per-read presence sets
// (pres, read only when filtered); calibNearestScreened explains why the
// screened search resolves the reference scan's exact value.
// TestAutoEditThresholdFilterIdentity pins the two variants equal;
// TestCalibFilterSoundness checks the lemma directly.
//
// Both phases run in parallel over probes, worker w using es[w]. Every
// probe's values depend only on the probe and the sample, and each phase's
// values are sorted before use, so the threshold is the same at every
// worker count (pinned by TestAutoEditThresholdWorkerIdentity). A probe item
// that panics or is cancelled leaves its -1 "no evidence" entries behind;
// the caller re-checks ctx before using the result.
func autoEditThresholdOpt(ctx context.Context, reads []dna.Seq, pres []gramPresence, readLen int, rng *xrand.RNG, es []edit.Scratch, filtered bool) int {
	// Above the one-word band (k ≤ 63) from 107 nt: phase 1 is the hot path's only myersBlocked threshold user.
	bound := readLen * 3 / 5
	if bound < 4 {
		bound = 4
	}
	nProbe := 48
	if nProbe > len(reads) {
		nProbe = len(reads)
	}
	// The sample must be large enough that most probes find a same-strand
	// partner in it; at coverage c in n reads a probe needs ≈ n/c samples.
	nSample := 2000
	if nSample > len(reads) {
		nSample = len(reads)
	}
	perm := rng.Perm(len(reads))
	probes := perm[:nProbe]
	sample := perm[len(perm)-nSample:]
	workers := len(es)

	// Phase 1: the different-strand distance median needs only a modest
	// number of pairs.
	pairs := min(calibPhase1Pairs, len(sample))
	dists := make([]int, nProbe*pairs)
	for i := range dists {
		dists[i] = -1
	}
	exec.ParallelForW(ctx, workers, nProbe, func(w, i int) {
		pi := probes[i]
		for k := 0; k < pairs; k++ {
			sj := sample[(i*41+k*53)%len(sample)]
			if pi == sj {
				continue
			}
			d, ok := es[w].Within(reads[pi], reads[sj], bound)
			if !ok {
				d = bound
			}
			dists[i*pairs+k] = d
		}
	})
	all := dropMissing(dists)
	if len(all) == 0 {
		return readLen / 4
	}
	sort.Ints(all)
	median := all[len(all)/2] // dominated by different-strand pairs

	// Phase 2: each probe's nearest neighbour over the full sample. The
	// screened variant resolves the same value through the counting filter
	// (see calibNearestScreened); probes it cannot resolve — and the
	// reference variant always — pay the verbatim sequential scan.
	nearest := make([]int, nProbe)
	for i := range nearest {
		nearest[i] = -1
	}
	exec.ParallelForW(ctx, workers, nProbe, func(w, i int) {
		pi := probes[i]
		nn, done := 0, false
		if filtered && median > 2 {
			nn, done = calibNearestScreened(reads, pres, pi, sample, median, &es[w])
		}
		if !done {
			nn = calibNearestScan(reads, pi, sample, median, &es[w])
		}
		nearest[i] = nn
	})
	nearest = dropMissing(nearest)
	if len(nearest) == 0 {
		return maxInt(4, median/2)
	}
	sort.Ints(nearest)
	// The same-strand mode: the lower quartile of nearest-neighbour
	// distances is robust even when only a third of the probes found a
	// same-strand partner in the sample.
	nnLow := nearest[len(nearest)/4]
	if float64(nnLow) > 0.7*float64(median) {
		// No same-strand bump visible (singleton-ish data): stay well below
		// the different-strand mode.
		return maxInt(4, median/2)
	}
	return maxInt(4, (nnLow+median)/2)
}

// dropMissing filters the -1 "no evidence" entries out of vals in place.
func dropMissing(vals []int) []int {
	out := vals[:0]
	for _, v := range vals {
		if v >= 0 {
			out = append(out, v)
		}
	}
	return out
}

// calibScreenBand is the edit band the screened nearest-neighbour search
// checks candidates against. It must comfortably cover the same-strand mode
// (a few percent of the read length) while keeping the presence floor
// da - band*presQ high enough that different-strand pairs screen out.
const calibScreenBand = 12

// calibNearestScan is the reference phase-2 inner loop, verbatim: scan the
// sample in order with a shrinking banded bound, stopping once nn <= 2.
func calibNearestScan(reads []dna.Seq, pi int, sample []int, median int, es *edit.Scratch) int {
	nn := median // nothing above the diff median can be the same-strand mode
	for _, sj := range sample {
		if pi == sj {
			continue
		}
		if d, ok := es.Within(reads[pi], reads[sj], nn-1); ok {
			nn = d
		}
		if nn <= 2 {
			break
		}
	}
	return nn
}

// calibNearestScreened resolves a probe's phase-2 nearest-neighbour value
// without the sequential scan, returning done=false when it cannot.
//
// calibNearestScan's result is almost order-free: nn only ever drops to the
// distance of a closer pair, so the final value is min(median, min_j ed) —
// except that the scan breaks at the first pair reaching nn <= 2, which
// makes that pair's distance the answer. Both shapes survive screening with
// the counting lemma at a fixed band ks: every screened-out pair has proven
// ed > ks >= 3, so (a) the first in-order pair with ed <= 2 is necessarily a
// candidate and is caught in order, and (b) if some candidate has ed <= ks,
// the global minimum is the candidate minimum. Only a probe whose true
// nearest neighbour lies beyond ks (no same-strand partner in the sample,
// or an unusually damaged one) is unresolvable, and falls back to the
// verbatim scan — paying exactly the reference cost for that probe.
//
// Requires median > 2 (the caller guards): with median <= 2 the reference
// scan breaks after its first pair regardless of distance.
func calibNearestScreened(reads []dna.Seq, pres []gramPresence, pi int, sample []int, median int, es *edit.Scratch) (int, bool) {
	pb := &pres[pi]
	da := pb.count()
	ks := calibScreenBand
	if m := (da - 1) / presQ; m < ks {
		ks = m // keep the floor positive: the lemma needs ks*presQ < da
	}
	if ks < 3 {
		return 0, false // degenerate probe (tiny or repeat-saturated read)
	}
	floor := da - ks*presQ
	candMin := 1 << 30
	for _, sj := range sample {
		if pi == sj {
			continue
		}
		if pb.shared(&pres[sj]) < floor {
			continue // proven ed > ks
		}
		if d, ok := es.Within(reads[pi], reads[sj], ks); ok {
			if d <= 2 {
				// The first in-order pair reaching ed <= 2: the reference
				// scan updates nn to d here and breaks.
				return d, true
			}
			if d < candMin {
				candMin = d
			}
		}
	}
	if candMin > ks {
		return 0, false // nearest neighbour beyond the screen band
	}
	if median < candMin {
		return median, true
	}
	return candMin, true
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// AutoThresholdsDefault runs AutoThresholds with the default q-gram
// signature configuration (48 grams of length 4), which is what the
// clustering module itself uses when no thresholds are given. It exists so
// callers outside the package (Fig. 5 harness, examples) can inspect the
// histogram.
func AutoThresholdsDefault(reads []dna.Seq, seed uint64) (thetaLow, thetaHigh int, hist []int) {
	grams := newGramSet(xrand.Derive(seed, 0xc0f1), QGram, 48, 4)
	return AutoThresholds(reads, grams, xrand.Derive(seed, 0xc0f2))
}

// AutoThresholds implements the automatic configuration of §VI-B (Fig. 5):
// it samples a handful of probe reads, computes signature distances against
// a larger random sample, and derives (θ_low, θ_high) from the resulting
// bimodal distribution. Distances between reads of different strands form a
// bell around the histogram's main mode; distances between reads of the same
// strand form a small bump near zero, which the probes' nearest-neighbour
// distances locate without ground truth. θ_high is placed between the two
// modes and θ_low inside the same-strand bump.
//
// The returned histogram (indexed by distance) is what Fig. 5 plots.
func AutoThresholds(reads []dna.Seq, grams gramSet, rng *xrand.RNG) (thetaLow, thetaHigh int, hist []int) {
	return autoThresholds(context.Background(), reads, grams, rng, 1)
}

// autoThresholds is the worker-parallel calibration behind AutoThresholds.
// The sampling permutation is drawn serially before any goroutine starts and
// the per-probe distance rows are merged back in probe order, so thresholds
// and histogram are bit-identical for every worker count (pinned by
// TestAutoThresholdsParallelDeterministic). Each worker owns one sigScratch
// slot, per the scratch ownership rules in DESIGN.md.
func autoThresholds(ctx context.Context, reads []dna.Seq, grams gramSet, rng *xrand.RNG, workers int) (thetaLow, thetaHigh int, hist []int) {
	if workers < 1 {
		workers = 1
	}
	nProbe := 64
	if nProbe > len(reads) {
		nProbe = len(reads)
	}
	nSample := 2048
	if nSample > len(reads) {
		nSample = len(reads)
	}
	perm := rng.Perm(len(reads))
	probes := perm[:nProbe]
	sample := perm[len(perm)-nSample:]

	// Rows are pre-filled with the "no evidence" sentinel so a
	// panic-contained or cancelled row item reads as skipped rather than as
	// a spurious distance-0 pair. The fast row pass requires the rolling
	// gram scan (q <= maxRollingQ), mirroring the clustering fast path's
	// gate; TestAutoThresholdRowsFastMatchesReference pins the two passes
	// bit-identical.
	rows := make([]int, nProbe*nSample)
	for i := range rows {
		rows[i] = -1
	}
	if grams.q <= maxRollingQ {
		autoThresholdRowsFast(ctx, reads, grams, probes, sample, rows, workers)
	} else {
		autoThresholdRowsRef(ctx, reads, grams, probes, sample, rows, workers)
	}

	// Serial merge in probe order: identical dists/maxD/nearest to the
	// serial pass regardless of how the rows were scheduled.
	maxD := 0
	var dists []int
	nearest := make([]int, 0, nProbe)
	for i := range probes {
		nn := 1 << 30
		for _, d := range rows[i*nSample : (i+1)*nSample] {
			if d < 0 {
				continue
			}
			dists = append(dists, d)
			if d > maxD {
				maxD = d
			}
			if d < nn {
				nn = d
			}
		}
		if nn < 1<<30 {
			nearest = append(nearest, nn)
		}
	}
	hist = make([]int, maxD+1)
	for _, d := range dists {
		hist[d]++
	}
	if len(dists) == 0 {
		return 0, 1, hist
	}

	// Main (different-strand) mode of the distance distribution, excluding
	// the w-gram "too far to compare" sentinel.
	mode, peak := 0, -1
	for d, c := range hist {
		if d >= WGramFar {
			break
		}
		if c > peak {
			mode, peak = d, c
		}
	}
	// Same-strand bump location: the median nearest-neighbour distance of
	// the probes. With any real coverage most probes have a same-strand
	// partner in the sample, so the median sits inside the bump.
	sort.Ints(nearest)
	nnMed := nearest[len(nearest)/2]
	if nnMed >= mode {
		// No visible same-strand bump (singletons or extreme noise): be
		// conservative and only trust very close signatures.
		thetaHigh = mode / 2
		if thetaHigh < 1 {
			thetaHigh = 1
		}
		return thetaHigh / 2, thetaHigh, hist
	}
	// θ_high: 80% of the way from the same-strand bump to the bell. The
	// band between the modes is resolved by the edit-distance confirmation,
	// which is far more discriminative, so erring toward the bell only
	// costs extra edit-distance calls, never wrong merges.
	thetaHigh = nnMed + (mode-nnMed)*4/5
	thetaLow = nnMed / 2
	if thetaHigh <= thetaLow {
		thetaHigh = thetaLow + 1
	}
	return thetaLow, thetaHigh, hist
}

// autoThresholdRowsRef fills the probe-by-sample distance matrix with the
// reference signature machinery. Nil signatures (a panic-contained item)
// leave their entries at the -1 sentinel — their 1<<30 distance would
// otherwise size the histogram.
func autoThresholdRowsRef(ctx context.Context, reads []dna.Seq, grams gramSet, probes, sample []int, rows []int, workers int) {
	nProbe, nSample := len(probes), len(sample)
	scs := make([]sigScratch, workers)
	probeSigs := make([][]int32, nProbe)
	sampleSigs := make([][]int32, nSample)
	exec.ParallelForW(ctx, workers, nProbe+nSample, func(w, i int) {
		if i < nProbe {
			probeSigs[i] = grams.signatureScratch(reads[probes[i]], &scs[w])
		} else {
			sampleSigs[i-nProbe] = grams.signatureScratch(reads[sample[i-nProbe]], &scs[w])
		}
	})
	exec.ParallelForW(ctx, workers, nProbe, func(_, i int) {
		row := rows[i*nSample : (i+1)*nSample]
		pi := probes[i]
		psig := probeSigs[i]
		if psig == nil {
			return
		}
		for j, sj := range sample {
			if pi == sj || sampleSigs[j] == nil {
				continue
			}
			row[j] = grams.distance(psig, sampleSigs[j])
		}
	})
}

// autoThresholdRowsFast is autoThresholdRowsRef on the fast-path signature
// kernels: one shared chain index, flat signature backing, and — in QGram
// mode — bit-packed presence rows scored with hammingPacked, which is
// exactly gramSet.distance on 0/1 signatures. WGram rows use signatureInto
// (bit-identical to signatureScratch) and the reference distance, since the
// histogram needs the exact values, not a thresholded band. The ok flags
// replace the reference's nil-signature sentinel: set last in the signature
// item, so a panic-contained signature leaves its pairs at -1.
func autoThresholdRowsFast(ctx context.Context, reads []dna.Seq, grams gramSet, probes, sample []int, rows []int, workers int) {
	nProbe, nSample := len(probes), len(sample)
	var gi gramIndex
	gi.build(grams)
	probeOK := make([]bool, nProbe)
	sampleOK := make([]bool, nSample)
	if grams.mode == QGram {
		qw := sigWords(len(grams.grams))
		probeBits := make([]uint64, nProbe*qw)
		sampleBits := make([]uint64, nSample*qw)
		exec.ParallelForW(ctx, workers, nProbe+nSample, func(_, i int) {
			if i < nProbe {
				gi.qsigBitsInto(grams, reads[probes[i]], probeBits[i*qw:(i+1)*qw])
				probeOK[i] = true
			} else {
				j := i - nProbe
				gi.qsigBitsInto(grams, reads[sample[j]], sampleBits[j*qw:(j+1)*qw])
				sampleOK[j] = true
			}
		})
		exec.ParallelForW(ctx, workers, nProbe, func(_, i int) {
			if !probeOK[i] {
				return
			}
			row := rows[i*nSample : (i+1)*nSample]
			pi := probes[i]
			pbits := probeBits[i*qw : (i+1)*qw]
			for j, sj := range sample {
				if pi == sj || !sampleOK[j] {
					continue
				}
				row[j] = hammingPacked(pbits, sampleBits[j*qw:(j+1)*qw])
			}
		})
		return
	}
	g := len(grams.grams)
	probeSigs := make([]int32, nProbe*g)
	sampleSigs := make([]int32, nSample*g)
	exec.ParallelForW(ctx, workers, nProbe+nSample, func(_, i int) {
		if i < nProbe {
			gi.signatureInto(grams, reads[probes[i]], probeSigs[i*g:(i+1)*g])
			probeOK[i] = true
		} else {
			j := i - nProbe
			gi.signatureInto(grams, reads[sample[j]], sampleSigs[j*g:(j+1)*g])
			sampleOK[j] = true
		}
	})
	exec.ParallelForW(ctx, workers, nProbe, func(_, i int) {
		if !probeOK[i] {
			return
		}
		row := rows[i*nSample : (i+1)*nSample]
		pi := probes[i]
		psig := probeSigs[i*g : (i+1)*g]
		for j, sj := range sample {
			if pi == sj || !sampleOK[j] {
				continue
			}
			row[j] = grams.distance(psig, sampleSigs[j*g:(j+1)*g])
		}
	})
}

// AutoEditThresholdForTest exposes autoEditThreshold for diagnostics and
// experiments; production callers rely on Options.EditThreshold == 0.
func AutoEditThresholdForTest(reads []dna.Seq, seed uint64) int {
	readLen := 0
	for _, r := range reads {
		if len(r) > readLen {
			readLen = len(r)
		}
	}
	ctx := context.Background()
	return autoEditThreshold(ctx, reads, presenceSets(ctx, reads, 1), readLen, xrand.Derive(seed, 0xc0f3), make([]edit.Scratch, 1))
}
