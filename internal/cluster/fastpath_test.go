package cluster

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"dnastore/internal/dna"
	"dnastore/internal/edit"
	"dnastore/internal/xrand"
)

// TestFastPathMatchesReference is the central identity pin: the
// allocation-free fast path must produce byte-identical cluster memberships
// and identical decision counters (Merges, CheapMerges, EditDistanceCalls,
// the calibrated thresholds) to the retained map-based reference, for both
// signature modes and across worker counts, including the auto-threshold
// configuration path. The pools cover the 3 % point and the paper's Table
// III point (6 % error, coverage 10, 128-nt reads), where the automatic edit
// threshold lands inside the one-word band kernel's range and the straggler
// sweep's passes differ. The sweep-scale pool (15 000 reads of 150 nt at the
// Table III point) has ~1 500 clusters, so nr/20 exceeds SweepCandidates and
// its ~25 stragglers per mode are ranked against the scaled limit, through
// the exact QGram screen key and the WGram margin. CheapMerges counts applied
// cheap merges, so it never exceeds Merges.
func TestFastPathMatchesReference(t *testing.T) {
	gmp := runtime.GOMAXPROCS(0)
	for _, pool := range []struct {
		name                      string
		seed                      uint64
		strands, length, coverage int
		rate                      float64
	}{
		{"3%", 101, 150, 110, 6, 0.03},
		{"tableIII", 113, 120, 128, 10, 0.06},
		{"sweepScale", 129, 1500, 150, 10, 0.06},
	} {
		reads, _ := makePool(pool.seed, pool.strands, pool.length, pool.coverage, pool.rate)
		for _, mode := range []SignatureMode{QGram, WGram} {
			base := Options{Mode: mode, Seed: 77, Reference: true, Workers: 1}
			want := Cluster(reads, base)
			w := want.Stats
			if w.CheapMerges > w.Merges {
				t.Fatalf("pool=%s mode=%v: CheapMerges %d > Merges %d", pool.name, mode, w.CheapMerges, w.Merges)
			}
			for _, workers := range []int{1, 4, gmp} {
				for _, ref := range []bool{false, true} {
					if ref && workers == 1 {
						continue // that's `want` itself
					}
					opts := Options{Mode: mode, Seed: 77, Reference: ref, Workers: workers}
					got := Cluster(reads, opts)
					name := fmt.Sprintf("pool=%s mode=%v ref=%v workers=%d", pool.name, mode, ref, workers)
					if !reflect.DeepEqual(got.Clusters, want.Clusters) {
						t.Fatalf("%s: cluster memberships diverge from reference", name)
					}
					g := got.Stats
					if g.Merges != w.Merges || g.CheapMerges != w.CheapMerges || g.EditDistanceCalls != w.EditDistanceCalls ||
						g.ThetaLow != w.ThetaLow || g.ThetaHigh != w.ThetaHigh {
						t.Fatalf("%s: stats diverge: got %+v want %+v", name, g, w)
					}
				}
			}
		}
	}
}

// TestFastPathMatchesReferenceManualThresholds covers the fixed-threshold
// configuration (no auto-calibration) plus a degenerate thetaHigh beyond
// WGramFar, which forces wgramDistanceWithin onto its embedded reference
// loop.
func TestFastPathMatchesReferenceManualThresholds(t *testing.T) {
	reads, _ := makePool(103, 80, 100, 5, 0.05)
	for _, tc := range []struct {
		mode      SignatureMode
		low, high int
	}{
		{QGram, 3, 25},
		{WGram, 2, 40},
		{WGram, 2, WGramFar + 5}, // degenerate band: sentinel inside it
	} {
		opts := Options{Mode: tc.mode, ThetaLow: tc.low, ThetaHigh: tc.high, Seed: 9}
		want := Cluster(reads, Options{Mode: tc.mode, ThetaLow: tc.low, ThetaHigh: tc.high, Seed: 9, Reference: true})
		got := Cluster(reads, opts)
		if !reflect.DeepEqual(got.Clusters, want.Clusters) {
			t.Fatalf("mode=%v band=[%d,%d]: memberships diverge", tc.mode, tc.low, tc.high)
		}
		if got.Stats != want.Stats {
			// Timing fields differ; compare only decision counters.
			if got.Stats.Merges != want.Stats.Merges ||
				got.Stats.CheapMerges != want.Stats.CheapMerges ||
				got.Stats.EditDistanceCalls != want.Stats.EditDistanceCalls {
				t.Fatalf("mode=%v band=[%d,%d]: stats diverge", tc.mode, tc.low, tc.high)
			}
		}
	}
}

// TestFastPathShardedMatchesReference extends the identity pin through the
// sharded entry point, which copies Options per shard (the Reference flag
// must propagate) and re-clusters shard unions.
func TestFastPathShardedMatchesReference(t *testing.T) {
	reads, _ := makePool(105, 100, 110, 5, 0.04)
	for _, mode := range []SignatureMode{QGram, WGram} {
		want := Sharded(reads, 3, Options{Mode: mode, Seed: 5, Reference: true})
		got := Sharded(reads, 3, Options{Mode: mode, Seed: 5})
		if !reflect.DeepEqual(got.Clusters, want.Clusters) {
			t.Fatalf("mode=%v: sharded memberships diverge from reference", mode)
		}
		if got.Stats.Merges != want.Stats.Merges ||
			got.Stats.EditDistanceCalls != want.Stats.EditDistanceCalls {
			t.Fatalf("mode=%v: sharded stats diverge", mode)
		}
	}
}

// TestReferenceFallbackConfigs pins the automatic fallback: configurations
// the fast path cannot pack must run (and succeed) on the reference even
// with Reference unset.
func TestReferenceFallbackConfigs(t *testing.T) {
	if !(Options{PartitionLen: maxPackedPartition + 1}).useReference() {
		t.Error("PartitionLen beyond packing limit should fall back")
	}
	if !(Options{GramLen: maxRollingQ + 1}).useReference() {
		t.Error("GramLen beyond head-table limit should fall back")
	}
	if (Options{}).useReference() {
		t.Error("defaults should use the fast path")
	}
	reads, _ := makePool(107, 30, 120, 4, 0.03)
	res := Cluster(reads, Options{PartitionLen: 30, Seed: 3})
	if len(res.Clusters) == 0 {
		t.Fatal("fallback clustering produced no clusters")
	}
}

// TestPackedPartitionKeys proves the invariants the fast path's partition
// grouping rests on: packed-key numeric order equals reference string-key
// order, packedKeyHash equals fnv1a of the string key (the per-partition rng
// stream seed), and radixOrder yields the (key, root) order.
func TestPackedPartitionKeys(t *testing.T) {
	rng := xrand.New(42)
	type entry struct {
		packed uint64
		str    string
	}
	var entries []entry
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(maxPackedPartition + 1)
		bases := dna.Random(rng, n)
		prefix := rng.Intn(2) == 1
		tag := "a:"
		if prefix {
			tag = "p:"
		}
		e := entry{packPartKey(prefix, bases), tag + bases.String()}
		entries = append(entries, e)
		if got, want := packedKeyHash(e.packed), fnv1a(e.str); got != want {
			t.Fatalf("hash mismatch for %q: packed %#x, fnv1a %#x", e.str, got, want)
		}
	}
	packedOrder := append([]entry(nil), entries...)
	sort.Slice(packedOrder, func(i, j int) bool { return packedOrder[i].packed < packedOrder[j].packed })
	strOrder := append([]entry(nil), entries...)
	sort.Slice(strOrder, func(i, j int) bool { return strOrder[i].str < strOrder[j].str })
	for i := range packedOrder {
		if packedOrder[i].str != strOrder[i].str {
			t.Fatalf("order diverges at %d: packed says %q, string says %q",
				i, packedOrder[i].str, strOrder[i].str)
		}
	}
	// Injectivity on distinct keys: equal packed keys must mean equal strings.
	byPacked := map[uint64]string{}
	for _, e := range entries {
		if prev, ok := byPacked[e.packed]; ok && prev != e.str {
			t.Fatalf("collision: %q and %q both pack to %#x", prev, e.str, e.packed)
		}
		byPacked[e.packed] = e.str
	}

	// The round's stable radix sort of the roots must give the (key, root)
	// order: random anchor and prefix keys of every length up to the
	// packing limit, keys at the default PartitionLen (the common case,
	// with most bytes constant), short prefix keys, and heavy duplication.
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(400)
		distinct := 1 + rng.Intn(n+1)
		pool := make([]uint64, distinct)
		for k := range pool {
			l := 6
			switch trial % 4 {
			case 1:
				l = rng.Intn(maxPackedPartition + 1)
			case 2:
				l = rng.Intn(4) // short keys: reads shorter than PartitionLen
			}
			pool[k] = packPartKey(rng.Intn(3) == 0, dna.Random(rng, l))
		}
		keys := make([]uint64, n)
		want := make([]int32, n)
		for d := range keys {
			keys[d] = pool[rng.Intn(distinct)]
			want[d] = int32(d)
		}
		sort.Slice(want, func(i, j int) bool {
			a, b := want[i], want[j]
			if keys[a] != keys[b] {
				return keys[a] < keys[b]
			}
			return a < b
		})
		got := make([]int32, n)
		radixOrder(keys, got, make([]int32, n))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d, %d distinct keys): radix order diverges from (key, root) order", trial, n, distinct)
		}
	}
}

// TestFillRandomSeqMatchesDnaRandom pins the rng-consumption equivalence the
// scratch-backed anchor and gram draws depend on.
func TestFillRandomSeqMatchesDnaRandom(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64} {
		a := dna.Random(xrand.New(9), n)
		b := make(dna.Seq, n)
		fillRandomSeq(xrand.New(9), b)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("n=%d: fillRandomSeq diverges from dna.Random", n)
		}
	}
	// Stream position afterwards must match too.
	r1, r2 := xrand.New(9), xrand.New(9)
	_ = dna.Random(r1, 13)
	fillRandomSeq(r2, make(dna.Seq, 13))
	if r1.Uint64() != r2.Uint64() {
		t.Fatal("rng stream position diverges after draw")
	}
}

// TestGramSetScratchMatchesNewGramSet pins that fill() consumes the rng and
// produces grams/codes exactly like newGramSet.
func TestGramSetScratchMatchesNewGramSet(t *testing.T) {
	var gsc gramSetScratch
	for _, tc := range []struct{ count, q int }{{48, 4}, {144, 4}, {10, 6}} {
		want := newGramSet(xrand.Derive(7, 3), WGram, tc.count, tc.q)
		gsc.fill(xrand.Derive(7, 3), WGram, tc.count, tc.q)
		if !reflect.DeepEqual(want.grams, gsc.set.grams) || !reflect.DeepEqual(want.codes, gsc.set.codes) {
			t.Fatalf("count=%d q=%d: scratch gram set diverges", tc.count, tc.q)
		}
	}
}

// TestSignatureIntoMatchesScratch pins the chain-indexed signature scan
// against the reference table-based builder, in both modes, including reads
// shorter than the gram length.
func TestSignatureIntoMatchesScratch(t *testing.T) {
	rng := xrand.New(55)
	var sc sigScratch
	for trial := 0; trial < 200; trial++ {
		mode := SignatureMode(trial % 2)
		q := 2 + rng.Intn(4)
		gs := newGramSet(rng, mode, 16+rng.Intn(64), q)
		var idx gramIndex
		idx.build(gs)
		read := dna.Random(rng, rng.Intn(150))
		want := gs.signatureScratch(read, &sc)
		got := make([]int32, len(gs.grams))
		idx.signatureInto(gs, read, got)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("mode=%v q=%d len=%d: signatureInto diverges", mode, q, len(read))
		}
		if mode == QGram {
			wantBits := make([]uint64, sigWords(len(gs.grams)))
			packQSig(want, wantBits)
			gotBits := make([]uint64, sigWords(len(gs.grams)))
			idx.qsigBitsInto(gs, read, gotBits)
			if !reflect.DeepEqual(wantBits, gotBits) {
				t.Fatalf("q=%d len=%d: qsigBitsInto diverges from packed reference", q, len(read))
			}
		}
	}
}

// TestHammingPackedMatchesDistance pins the packed Hamming kernel against
// gramSet.distance on the signatures the words were packed from.
func TestHammingPackedMatchesDistance(t *testing.T) {
	rng := xrand.New(56)
	gs := gramSet{mode: QGram}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(200)
		a := make([]int32, n)
		b := make([]int32, n)
		for i := range a {
			a[i] = int32(rng.Intn(2))
			b[i] = int32(rng.Intn(2))
		}
		pa := make([]uint64, sigWords(n))
		pb := make([]uint64, sigWords(n))
		packQSig(a, pa)
		packQSig(b, pb)
		if got, want := hammingPacked(pa, pb), gs.distance(a, b); got != want {
			t.Fatalf("n=%d: hammingPacked=%d distance=%d", n, got, want)
		}
	}
}

// TestWgramDistanceWithinContract pins the early-exit kernel's contract
// against the reference distance: exact when the reference is within
// thetaHigh, and strictly above thetaHigh otherwise; bit-exact everywhere
// when thetaHigh >= WGramFar.
func TestWgramDistanceWithinContract(t *testing.T) {
	rng := xrand.New(57)
	gs := gramSet{mode: WGram}
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(100)
		a := make([]int32, n)
		b := make([]int32, n)
		for i := range a {
			if rng.Intn(3) == 0 {
				a[i] = wgramAbsent
			} else {
				a[i] = int32(rng.Intn(120))
			}
			if rng.Intn(3) == 0 {
				b[i] = wgramAbsent
			} else {
				b[i] = int32(rng.Intn(120))
			}
		}
		want := gs.distance(a, b)
		for _, th := range []int{0, 5, 20, want - 1, want, want + 1, WGramFar, WGramFar + 10} {
			if th < 0 {
				continue
			}
			got := wgramDistanceWithin(a, b, th)
			if want <= th {
				if got != want {
					t.Fatalf("n=%d th=%d: got %d, reference %d (within band: must be exact)", n, th, got, want)
				}
			} else if got <= th {
				t.Fatalf("n=%d th=%d: got %d <= th but reference %d > th", n, th, got, want)
			}
			if th >= WGramFar && got != want {
				t.Fatalf("n=%d th=%d: degenerate band must be bit-exact: got %d, reference %d", n, th, got, want)
			}
		}
	}
}

// TestSigKernelsZeroAlloc pins the signature kernels at zero allocations per
// call after warmup.
func TestSigKernelsZeroAlloc(t *testing.T) {
	rng := xrand.New(58)
	gsQ := newGramSet(rng, QGram, 48, 4)
	gsW := newGramSet(rng, WGram, 48, 4)
	var idxQ, idxW gramIndex
	idxQ.build(gsQ)
	idxW.build(gsW)
	read := dna.Random(rng, 110)
	sig := make([]int32, 48)
	sig2 := make([]int32, 48)
	bits := make([]uint64, sigWords(48))
	bits2 := make([]uint64, sigWords(48))
	idxW.signatureInto(gsW, read, sig)
	idxW.signatureInto(gsW, dna.Random(rng, 110), sig2)
	idxQ.qsigBitsInto(gsQ, read, bits)
	idxQ.qsigBitsInto(gsQ, dna.Random(rng, 110), bits2)
	var pres gramPresence
	presenceOf(read, &pres)
	planes := make([]uint64, sweepPlanes*len(bits))
	for name, f := range map[string]func(){
		"signatureInto":       func() { idxW.signatureInto(gsW, read, sig) },
		"qsigBitsInto":        func() { idxQ.qsigBitsInto(gsQ, read, bits) },
		"qsigGather":          func() { qsigGather(gsQ.codes, &pres, bits) },
		"hammingPacked":       func() { hammingPacked(bits, bits2) },
		"wgramDistanceWithin": func() { wgramDistanceWithin(sig, sig2, 18) },
		"planeAdd":            func() { clear(planes); planeAdd(planes, bits2) },
		"planeScreenKey":      func() { planeScreenKey(planes, bits, 20, 1, 20) },
		"planeMeanDistance":   func() { planeMeanDistance(planes, bits, 1, 48) },
	} {
		if n := testing.AllocsPerRun(100, f); n > 0 {
			t.Errorf("%s allocates %.1f/op", name, n)
		}
	}
}

// TestRoundRunnerZeroAlloc pins the tentpole's allocation claim: once warm,
// a full clustering round and a full straggler-sweep pass on the fast path
// allocate nothing (single-worker dispatch; the parallel dispatcher's
// goroutines are outside the claim). The sweep pass is replayed from a saved
// union-find so every measured pass has stragglers to screen, rank and
// edit-check. QGram runs with gathered signatures (GramLen 4) and with the
// chain-indexed scan (GramLen 5).
func TestRoundRunnerZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		mode    SignatureMode
		gramLen int
	}{{QGram, 4}, {QGram, 5}, {WGram, 4}} {
		reads, _ := makePool(109, 60, 110, 5, 0.03)
		o := Options{Mode: tc.mode, GramLen: tc.gramLen, ThetaLow: 2, ThetaHigh: 18, EditThreshold: 14, Workers: 1, Seed: 11}.withDefaults(110)
		var pres []gramPresence
		if tc.mode == QGram && tc.gramLen == presQ {
			pres = presenceSets(t.Context(), reads, 1)
		}
		uf := newUnionFind(len(reads))
		var stats Stats
		editScr := make([]edit.Scratch, 1)
		rr := newRoundRunner(t.Context(), reads, pres, uf, o, o.ThetaLow, o.ThetaHigh, editScr, &stats)
		rng := xrand.New(o.Seed)
		for round := 0; round < 6; round++ { // warmup: buffers reach steady size
			rr.runRound(rng, round)
		}
		round := 6
		if n := testing.AllocsPerRun(10, func() {
			rr.runRound(rng, round)
			round++
		}); n > 0 {
			t.Errorf("mode=%v q=%d: steady-state runRound allocates %.1f/op", tc.mode, tc.gramLen, n)
		}

		parent := append([]int(nil), uf.parent...)
		size := append([]int(nil), uf.size...)
		calls := stats.EditDistanceCalls
		rr.runSweepPass(0)
		if stats.EditDistanceCalls == calls {
			t.Fatalf("mode=%v q=%d: warm sweep pass made no edit call; the pool no longer exercises the sweep", tc.mode, tc.gramLen)
		}
		if n := testing.AllocsPerRun(10, func() {
			copy(uf.parent, parent)
			copy(uf.size, size)
			rr.runSweepPass(0)
		}); n > 0 {
			t.Errorf("mode=%v q=%d: warm runSweepPass allocates %.1f/op", tc.mode, tc.gramLen, n)
		}
	}
}

// BenchmarkClusterStage times the full clustering call at the 3 % operating
// point (600 strands × coverage 8 = 4800 reads of ~110 bases), fast path vs
// reference.
func BenchmarkClusterStage(b *testing.B) {
	reads, _ := makePool(10, 600, 110, 8, 0.03)
	for _, ref := range []bool{false, true} {
		name := "fast"
		if ref {
			name = "reference"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Cluster(reads, Options{Seed: 13, Workers: 1, Reference: ref})
			}
		})
	}
}

// TestAutoEditThresholdFilterIdentity pins the q-gram counting filter's
// soundness end to end: the filtered calibration returns the same threshold
// as the reference (filterless) variant, because every skipped pair is one
// the reference's edit-distance call would have rejected anyway.
func TestAutoEditThresholdFilterIdentity(t *testing.T) {
	for _, tc := range []struct {
		seed     uint64
		strands  int
		length   int
		coverage int
		rate     float64
	}{
		{201, 120, 110, 6, 0.03},
		{202, 60, 100, 5, 0.08},
		{203, 200, 150, 4, 0.01},
		{204, 40, 60, 8, 0.05},
		{205, 150, 110, 1, 0.03}, // singletons: screened search falls back
	} {
		reads, _ := makePool(tc.seed, tc.strands, tc.length, tc.coverage, tc.rate)
		readLen := 0
		for _, r := range reads {
			if len(r) > readLen {
				readLen = len(r)
			}
		}
		es := make([]edit.Scratch, 1)
		pres := presenceSets(context.Background(), reads, 1)
		ref := autoEditThresholdOpt(context.Background(), reads, pres, readLen, xrand.Derive(tc.seed, 0xc0f3), es, false)
		got := autoEditThresholdOpt(context.Background(), reads, pres, readLen, xrand.Derive(tc.seed, 0xc0f3), es, true)
		if got != ref {
			t.Errorf("pool %d: filtered autoEditThreshold = %d, reference = %d", tc.seed, got, ref)
		}
	}
}

// TestCalibFilterSoundness checks the presence counting-lemma screen
// directly on random pairs: whenever the filter would skip a pair at band
// k, the banded edit-distance call it replaces must return !ok.
func TestCalibFilterSoundness(t *testing.T) {
	rng := xrand.New(77)
	var es edit.Scratch
	var pa, pb gramPresence
	for trial := 0; trial < 2000; trial++ {
		a := dna.Random(rng, 20+rng.Intn(120))
		b := dna.Random(rng, 20+rng.Intn(120))
		if trial%3 == 0 {
			// Related pair: mutate a few bases so near-threshold bands occur.
			b = append(dna.Seq(nil), a...)
			for m := rng.Intn(8); m >= 0; m-- {
				b[rng.Intn(len(b))] = dna.Base(rng.Intn(dna.NumBases))
			}
		}
		presenceOf(a, &pa)
		presenceOf(b, &pb)
		da := pa.count()
		k := rng.Intn(40)
		if da == 0 || k*presQ >= da {
			continue
		}
		inter := pa.shared(&pb)
		if inter >= da-k*presQ {
			continue // filter passes the pair through; nothing to check
		}
		if d, ok := es.Within(a, b, k); ok {
			t.Fatalf("trial %d: filter skipped pair with ed %d <= k %d (inter %d, da %d)", trial, d, k, inter, da)
		}
	}
}

// TestAutoThresholdRowsFastMatchesReference pins the fast probe-by-sample
// distance matrix against the reference pass for both modes and several
// worker counts, including the bit-packed QGram scoring.
func TestAutoThresholdRowsFastMatchesReference(t *testing.T) {
	reads, _ := makePool(211, 80, 110, 5, 0.04)
	for _, mode := range []SignatureMode{QGram, WGram} {
		grams := newGramSet(xrand.Derive(31, 0xc0f1), mode, 48, 4)
		rng := xrand.Derive(31, 0xc0f2)
		perm := rng.Perm(len(reads))
		probes := perm[:32]
		sample := perm[len(perm)-200:]
		ref := make([]int, len(probes)*len(sample))
		for i := range ref {
			ref[i] = -1
		}
		autoThresholdRowsRef(context.Background(), reads, grams, probes, sample, ref, 1)
		for _, workers := range []int{1, 4} {
			got := make([]int, len(probes)*len(sample))
			for i := range got {
				got[i] = -1
			}
			autoThresholdRowsFast(context.Background(), reads, grams, probes, sample, got, workers)
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("mode %v workers %d: fast rows differ from reference", mode, workers)
			}
		}
	}
}
