// Indexed straggler sweep — the fast-path replacement for the reference
// stragglerSweep (reference.go). The reference ranks, for every straggler,
// every other cluster by exact meanDistance and then fully sorts the list:
// O(S·R·G + S·R log R) for S stragglers over R clusters. The sweep here keeps
// the identical outcome but ranks through a cheap exact-or-bounded screen and
// recomputes the reference distance only for the screen's survivors:
//
//  1. a screen value d̃_j per candidate cluster j whose only divergence from
//     the reference float distance d_j is float32 round-off (QGram) or
//     summation order (WGram);
//  2. a bounded max-heap finds the limit-th smallest d̃, and every candidate
//     within a margin of it survives — an order-statistics argument (see
//     sweepKeySlack) proves the survivors are a superset of the exact
//     top-limit list;
//  3. survivors get the reference float32 distance (same values, same float
//     order) and the reference (distance, index) sort, so the edit-checked
//     candidate sequence — and therefore every merge and every Stats
//     counter — is bit-identical to the reference sweep.
//
// QGram: a cluster's averaged signature is the per-gram count c_g of members
// (at most sweepSigReads) containing gram g, divided by the member count n.
// Counts up to sweepSigReads fit in sweepPlanes bits, so each cluster is
// stored as sweepPlanes bit-planes over the G grams (plane b holds bit b of
// every c_g) plus C = Σ_g c_g — nine words per cluster at the default G = 144
// instead of a float row and postings. With S the straggler's presence bits
// and P = |S|, the reference distance is, in real arithmetic,
//
//	d = Σ_g |s_g − c_g/n| = (n·P + C − 2·Σ_{g∈S} c_g) / n,
//	Σ_{g∈S} c_g = Σ_b 2^b·popcount(plane_b & S),
//
// an exact integer numerator that the screen computes with AND+popcount and
// scales by sweepKeyScale/n into an integer key. Survivors rebuild the
// reference float32 mean float32(c)/float32(n) from the planes and sum in
// the reference's gram order (planeMeanDistance).
//
// WGram keeps a gram-inverted index over the float averaged signatures:
// with presence counts |P| (straggler) and M_j (mean) and shared_j
// co-present grams,
//
//	d = wgramCap·(|P| + M_j − 2·shared_j) + Σ_{co-present} min(|sig−mean|, cap),
//
// accumulated from weighted postings over the straggler's present grams;
// shared_j is an exact integer, so the overlap < wgramMinOverlap ⇒ WGramFar
// rule transfers exactly.
package cluster

import (
	"math"
	"math/bits"
	"sort"

	"dnastore/internal/exec"
)

// sweepPlanes is the number of bit-planes per QGram sweep cluster: per-gram
// member counts range over 0..sweepSigReads.
const sweepPlanes = 3

// Compile-time check: sweepSigReads must fit in sweepPlanes bits.
const _ uint = 1<<sweepPlanes - 1 - sweepSigReads

// sweepKeyScale is lcm(1..sweepSigReads): multiplying a QGram mean distance
// N/n (n ≤ sweepSigReads members) by it gives the exact integer key
// N·(sweepKeyScale/n). Distinct distances have keys at least 1 apart.
const sweepKeyScale = 60

// sweepKeySlack is the QGram screen's margin, in key units, for G grams.
//
// The screen key is exact: key_j = sweepKeyScale·D_j, with D_j the
// real-valued mean distance. The reference value d_j is D_j evaluated in
// float32, and its round-off is bounded by ε(G) = G·(G+3)·2⁻²⁴:
//   - each term |s_g − m_g| with m_g = fl(c_g/n) ∈ [0, 1] is off by at most
//     2u (u = 2⁻²⁴: one rounding in the division, one in 1 − m_g; 0 − m_g is
//     exact), and lies in [0, 1];
//   - the k-th addition of the running sum adds at most u·k(1+u)^k, since
//     the partial sum of k terms is at most k(1+u)^k;
//   - so |d_j − D_j| ≤ 2uG + u·(1+u)^G·G(G+1)/2 ≤ u·G(G+3) whenever
//     (1+u)^G ≤ 2, i.e. for every G up to 2²³.
//
// Soundness: if j is in the exact top-limit list then d_j ≤ d_(limit). Every
// D satisfies D ≥ d − ε, so the limit-th smallest D, T₀, is at least
// d_(limit) − ε, and D_j ≤ d_j + ε ≤ d_(limit) + ε ≤ T₀ + 2ε. In key units
// the survivors are key_j ≤ key(T₀) + ⌊2ε·sweepKeyScale⌋, since keys are
// integers. At the default G = 144 the slack is 0: two distinct mean
// distances differ by at least 1/sweepKeyScale, far more than 2ε ≈ 0.0025,
// so the screen only has to keep the ties of the limit-th key. A slack that
// is too generous only grows the recompute set, never changes the result.
func sweepKeySlack(G int) int32 {
	return int32(2 * sweepRoundoff(G) * sweepKeyScale)
}

// sweepRoundoff is ε(G) = G·(G+3)·2⁻²⁴, the bound on |d_j − D_j| derived
// at sweepKeySlack.
func sweepRoundoff(G int) float64 {
	return float64(G*(G+3)) * 0x1p-24
}

// sweepScreenMargin is the WGram screen's margin, added to the limit-th
// smallest approximate distance. The approximate and exact distances differ
// only by float32 summation order; with ≤ 3·NumGrams terms each bounded by
// wgramCap the reassociation error is far below 1.0, and the margin covers
// it with an order of magnitude to spare (the order-statistics argument of
// sweepKeySlack, with 2ε ≤ margin).
const sweepScreenMargin = 4.0

// sweepWorker is one worker's reusable straggler-sweep state. Slot w is
// touched only by worker w (exec.ParallelForW), never shared.
//
//dnalint:scratch
type sweepWorker struct {
	bits   []uint64  // QGram: straggler / member presence bits
	keys   []int32   // QGram: per-candidate screen key
	iheap  []int32   // QGram: bounded max-heap of the smallest keys
	sig    []int32   // WGram: straggler / member signature buffer
	sum    []float32 // WGram: mean-signature accumulators
	count  []int32
	acc    []float32 // WGram: per-candidate drift sum A_j
	shared []int32   // WGram: per-candidate co-present gram count
	stamp  []int32   // WGram: epoch stamps validating acc/shared entries
	epoch  int32
	dtil   []float32 // WGram: per-candidate approximate distance
	heap   []float32 // WGram: bounded max-heap of the smallest approximations
	cands  sweepCandSlice
}

// sweepCandSlice sorts candidates by (distance, index) — the reference's
// sort.Slice order — without the closure. Pointer receivers keep the
// sort.Interface conversion allocation-free.
type sweepCandSlice []sweepCand

func (p *sweepCandSlice) Len() int { return len(*p) }
func (p *sweepCandSlice) Less(a, b int) bool {
	x, y := (*p)[a], (*p)[b]
	if x.d != y.d {
		return x.d < y.d
	}
	return x.j < y.j
}
func (p *sweepCandSlice) Swap(a, b int) { (*p)[a], (*p)[b] = (*p)[b], (*p)[a] }

// sweepIndex is the shared (build-once-per-pass) state of the indexed sweep:
// the sweep gram set, the per-cluster summaries (bit-planes for QGram, float
// averaged rows and postings for WGram) and the per-straggler outputs. Built
// in disjoint-row parallel phases (plus serial postings); read-only while
// stragglers are processed.
//
//dnalint:scratch
type sweepIndex struct {
	gs          gramSetScratch
	small       int32
	limit       int // candidates edit-checked per straggler
	sizesSorted []int32

	rowOK []bool // row validity (replaces the reference's nil rows)

	// QGram: per cluster sweepPlanes planes of gw words each (plane-major)
	// and the summed gram counts C over its first sweepSigReads members.
	gw         int
	planes     []uint64
	planeC     []int32
	keySlack   int32
	missingKey int32 // screen key of a missing row: above every real key

	// WGram: nr × G flat averaged signatures and weighted postings: for
	// gram g, candidates postJ[postOff[g]:postOff[g+1]] with their mean
	// values in postV (present entries, mean ≥ 0).
	meanBuf []float32
	postOff []int32
	postJ   []int32
	postV   []float32
	cursor  []int32
	presCnt []int32 // present-gram count per candidate

	bestJ     []int32 // straggler outputs: chosen dense root, -1 none
	editCalls []int32

	ws          []sweepWorker
	planeItemFn func(w, i int)
	meanItemFn  func(w, i int)
	stragItemFn func(w, i int)
}

func ensureFloat32(s *[]float32, n int) []float32 {
	if cap(*s) < n {
		*s = make([]float32, n)
	}
	*s = (*s)[:n]
	return *s
}

// runSweepPass executes one straggler-sweep pass on the fast path: identical
// merges, edit-distance calls and Stats to stragglerSweep, via the screened
// candidate ranking. Returns the number of merges applied.
func (rr *roundRunner) runSweepPass(pass uint64) int {
	o := rr.o
	nr := rr.buildState()
	sw := &rr.sweep
	if sw.ws == nil {
		sw.ws = make([]sweepWorker, o.Workers)
		sw.planeItemFn = rr.sweepPlaneItem
		sw.meanItemFn = rr.sweepMeanItem
		sw.stragItemFn = rr.sweepStragglerItem
	}

	// Straggler size threshold: at most two thirds of the median cluster
	// size, floor 2 — the reference's definition.
	sorted := ensureInt32(&sw.sizesSorted, nr)
	for d := 0; d < nr; d++ {
		sorted[d] = rr.memberOff[d+1] - rr.memberOff[d]
	}
	sort.Sort((*int32Slice)(&sw.sizesSorted))
	small := sorted[nr/2] * 2 / 3
	if small < 2 {
		small = 2
	}
	sw.small = small
	if sorted[0] > small {
		return 0 // no stragglers: no edit call, no merge
	}
	// With many clusters the nearest-k ranking gets noisier; the reference
	// scales the edit-checked candidate count with the cluster population.
	sw.limit = max(o.SweepCandidates, nr/20)

	// Sweep grams: triple the per-round count, fresh per pass, drawn from
	// the same derived stream as the reference.
	G := 3 * o.NumGrams
	rr.gsRng.ReseedDerive(o.Seed, 0x5feeb+pass)
	sw.gs.fill(&rr.gsRng, o.Mode, G, o.GramLen)

	// Representatives: the first (smallest-id) member of each cluster.
	reps := ensureInt32(&rr.reps, nr)
	for d := 0; d < nr; d++ {
		reps[d] = rr.members[rr.memberOff[d]]
	}

	// Per-cluster summaries, one row per cluster, in parallel.
	if cap(sw.rowOK) < nr {
		sw.rowOK = make([]bool, nr)
	}
	sw.rowOK = sw.rowOK[:nr]
	for i := range sw.rowOK {
		sw.rowOK[i] = false
	}
	if o.Mode == QGram {
		sw.gw = sigWords(G)
		sw.planes = ensureUint64(&sw.planes, nr*sweepPlanes*sw.gw)
		sw.planeC = ensureInt32(&sw.planeC, nr)
		sw.keySlack = sweepKeySlack(G)
		sw.missingKey = int32(sweepKeyScale*G + 1)
		exec.ParallelForW(rr.ctx, o.Workers, nr, sw.planeItemFn)
	} else {
		sw.meanBuf = ensureFloat32(&sw.meanBuf, nr*G)
		exec.ParallelForW(rr.ctx, o.Workers, nr, sw.meanItemFn)
		sw.buildPostings(nr, G) // serial, O(nr·G)
	}

	// Stragglers, in parallel; outputs pre-set to "no merge" so skipped or
	// panicked items change nothing.
	sw.bestJ = ensureInt32(&sw.bestJ, nr)
	sw.editCalls = ensureInt32(&sw.editCalls, nr)
	for i := 0; i < nr; i++ {
		sw.bestJ[i] = -1
		sw.editCalls[i] = 0
	}
	exec.ParallelForW(rr.ctx, o.Workers, nr, sw.stragItemFn)

	// Serial apply in straggler order, exactly like the reference.
	applied := 0
	for i := 0; i < nr; i++ {
		rr.stats.EditDistanceCalls += int(sw.editCalls[i])
		if j := sw.bestJ[i]; j >= 0 {
			if rr.uf.union(int(rr.roots[i]), int(rr.roots[j])) {
				rr.stats.Merges++
				applied++
			}
		}
	}
	return applied
}

// sweepSigBits fills dst with read m's packed presence signature over the
// sweep grams: gathered from its presence set when the runner has them,
// else by the chain-indexed scan.
func (rr *roundRunner) sweepSigBits(m int32, dst []uint64) {
	sw := &rr.sweep
	if rr.pres != nil {
		qsigGather(sw.gs.set.codes, &rr.pres[m], dst)
		return
	}
	sw.gs.idx.qsigBitsInto(sw.gs.set, rr.reads[m], dst)
}

// sweepMembers is how many of cluster d's members its sweep summary
// averages: the first sweepSigReads.
func (rr *roundRunner) sweepMembers(d int) int {
	return min(int(rr.memberOff[d+1]-rr.memberOff[d]), sweepSigReads)
}

// sweepPlaneItem builds cluster i's QGram bit-planes from its first
// sweepSigReads members — the per-gram counts behind the reference's
// averaged signature — and marks the row valid.
func (rr *roundRunner) sweepPlaneItem(w, i int) {
	sw := &rr.sweep
	pw := sweepPlanes * sw.gw
	planes := sw.planes[i*pw : (i+1)*pw]
	for k := range planes {
		planes[k] = 0
	}
	lo := int(rr.memberOff[i])
	s := ensureUint64(&sw.ws[w].bits, sw.gw)
	c := 0
	for _, m := range rr.members[lo : lo+rr.sweepMembers(i)] {
		rr.sweepSigBits(m, s)
		c += planeAdd(planes, s)
	}
	sw.planeC[i] = int32(c)
	sw.rowOK[i] = true
}

// planeAdd adds the presence bits s (one word per 64 grams) to the
// per-gram counts held in planes (sweepPlanes planes of len(s) words,
// plane-major) with a ripple-carry over the planes, and returns popcount(s).
// Counts must stay below 1<<sweepPlanes.
//
//dnalint:hotpath
func planeAdd(planes, s []uint64) int {
	gw := len(s)
	n := 0
	for w, carry := range s {
		n += bits.OnesCount64(carry)
		for b := 0; b < sweepPlanes && carry != 0; b++ {
			p := planes[b*gw+w]
			planes[b*gw+w] = p ^ carry
			carry &= p
		}
	}
	return n
}

// planeScreenKey is the exact QGram screen key sweepKeyScale·D of a
// straggler with presence bits s (p = popcount(s)) against a cluster with
// bit-planes planes over n members and summed gram counts c, where
// D = (n·p + c − 2·Σ_{g∈s} c_g)/n is the real-valued mean distance.
//
//dnalint:hotpath
func planeScreenKey(planes, s []uint64, p, n, c int) int32 {
	gw := len(s)
	dot := 0
	for b := 0; b < sweepPlanes; b++ {
		for w, sw := range s {
			dot += bits.OnesCount64(planes[b*gw+w]&sw) << b
		}
	}
	return int32((n*p + c - 2*dot) * (sweepKeyScale / n))
}

// planeMeanDistance is gramSet.meanDistance for a QGram straggler with
// presence bits s against the averaged signature the planes describe (n
// members, G grams), bit for bit: the same float32(c)/float32(n) mean
// values, the same per-gram terms, summed in the same gram order. The count
// is read from the three planes sweepPlanes fixes.
//
//dnalint:hotpath
func planeMeanDistance(planes, s []uint64, n, G int) float32 {
	gw := len(s)
	var mean [1 << sweepPlanes]float32
	for c := range mean {
		mean[c] = float32(c) / float32(n)
	}
	p0, p1, p2 := planes[:gw], planes[gw:2*gw], planes[2*gw:3*gw]
	var d float32
	for g := 0; g < G; g++ {
		w, sh := g>>6, uint(g)&63
		m := mean[p0[w]>>sh&1|(p1[w]>>sh&1)<<1|(p2[w]>>sh&1)<<2]
		if s[w]>>sh&1 != 0 {
			m = 1 - m
		}
		d += m
	}
	return d
}

// sweepMeanItem computes WGram cluster i's averaged sweep signature into its
// flat row — float-identical to the reference (same members, same
// accumulation order) — and marks the row valid.
func (rr *roundRunner) sweepMeanItem(w, i int) {
	sw := &rr.sweep
	ws := &sw.ws[w]
	gs := sw.gs.set
	G := len(gs.grams)
	lo, n := int(rr.memberOff[i]), rr.sweepMembers(i)
	sum := ensureFloat32(&ws.sum, G)
	count := ensureInt32(&ws.count, G)
	for g := range sum {
		sum[g] = 0
		count[g] = 0
	}
	sig := ensureInt32(&ws.sig, G)
	for _, m := range rr.members[lo : lo+n] {
		sw.gs.idx.signatureInto(gs, rr.reads[m], sig)
		for g, v := range sig {
			if v == wgramAbsent {
				continue
			}
			sum[g] += float32(v)
			count[g]++
		}
	}
	mean := sw.meanBuf[i*G : (i+1)*G]
	for g := range mean {
		if int(count[g])*2 <= n { // absent in most members (or all)
			mean[g] = -1
		} else {
			mean[g] = sum[g] / float32(count[g])
		}
	}
	sw.rowOK[i] = true
}

// buildPostings inverts the WGram averaged signatures into per-gram weighted
// posting lists and counts each candidate's present grams.
func (sw *sweepIndex) buildPostings(nr, G int) {
	off := ensureInt32(&sw.postOff, G+1)
	for g := range off {
		off[g] = 0
	}
	sw.presCnt = ensureInt32(&sw.presCnt, nr)
	total := 0
	for j := 0; j < nr; j++ {
		if !sw.rowOK[j] {
			continue
		}
		c := int32(0)
		for g, m := range sw.meanBuf[j*G : (j+1)*G] {
			if m >= 0 {
				off[g+1]++
				c++
			}
		}
		sw.presCnt[j] = c
		total += int(c)
	}
	for g := 0; g < G; g++ {
		off[g+1] += off[g]
	}
	postJ := ensureInt32(&sw.postJ, total)
	postV := ensureFloat32(&sw.postV, total)
	cursor := ensureInt32(&sw.cursor, G)
	copy(cursor, off[:G])
	for j := 0; j < nr; j++ {
		if !sw.rowOK[j] {
			continue
		}
		for g, m := range sw.meanBuf[j*G : (j+1)*G] {
			if m >= 0 {
				postJ[cursor[g]] = int32(j)
				postV[cursor[g]] = m
				cursor[g]++
			}
		}
	}
}

// sweepStragglerItem decides straggler i's merge (worker w): screen every
// candidate, recompute the survivors exactly, edit-check the reference's
// candidate sequence.
func (rr *roundRunner) sweepStragglerItem(w, i int) {
	sw := &rr.sweep
	if rr.memberOff[i+1]-rr.memberOff[i] > sw.small {
		return
	}
	if rr.o.Mode == QGram {
		rr.sweepScreenQ(w, i)
	} else {
		rr.sweepScreenW(w, i)
	}
	rr.sweepConfirm(w, i)
}

// sweepScreenQ fills worker w's candidate list for QGram straggler i: exact
// integer screen keys against every cluster's bit-planes, then the
// reference float32 distance for the keys within sweepKeySlack of the
// limit-th smallest.
func (rr *roundRunner) sweepScreenQ(w, i int) {
	sw := &rr.sweep
	ws := &sw.ws[w]
	gw, pw := sw.gw, sweepPlanes*sw.gw
	nr := len(rr.roots)
	s := ensureUint64(&ws.bits, gw)
	rr.sweepSigBits(rr.reps[i], s)
	p := 0
	for _, x := range s {
		p += bits.OnesCount64(x)
	}
	keys := ensureInt32(&ws.keys, nr)
	limit := sw.limit
	h := ws.iheap[:0]
	for j := 0; j < nr; j++ {
		if j == i {
			continue
		}
		key := sw.missingKey
		if sw.rowOK[j] {
			key = planeScreenKey(sw.planes[j*pw:(j+1)*pw], s, p, rr.sweepMembers(j), int(sw.planeC[j]))
		}
		keys[j] = key
		if len(h) < limit {
			h = append(h, key)
			siftUp(h)
		} else if limit > 0 && key < h[0] {
			h[0] = key
			siftDown(h)
		}
	}
	T := int32(math.MaxInt32)
	if limit > 0 && len(h) >= limit {
		T = h[0] + sw.keySlack
	}
	ws.iheap = h[:0]

	G := len(sw.gs.set.grams)
	cands := ws.cands[:0]
	for j := 0; j < nr; j++ {
		if j == i || keys[j] > T {
			continue
		}
		d := sigMissingFarMean
		if sw.rowOK[j] {
			d = planeMeanDistance(sw.planes[j*pw:(j+1)*pw], s, rr.sweepMembers(j), G)
		}
		cands = append(cands, sweepCand{j, d})
	}
	ws.cands = cands
}

// sweepScreenW fills worker w's candidate list for WGram straggler i:
// approximate distances from the postings over the straggler's present
// grams, then the reference meanDistance for those within
// sweepScreenMargin of the limit-th smallest.
func (rr *roundRunner) sweepScreenW(w, i int) {
	sw := &rr.sweep
	ws := &sw.ws[w]
	gs := sw.gs.set
	G := len(gs.grams)
	nr := len(rr.roots)
	sig := ensureInt32(&ws.sig, G)
	sw.gs.idx.signatureInto(gs, rr.reads[rr.reps[i]], sig)

	// Screen accumulation over the straggler's present grams. Epoch stamps
	// make acc/shared valid only for candidates touched this straggler.
	acc := ensureFloat32(&ws.acc, nr)
	shared := ensureInt32(&ws.shared, nr)
	stamp := ensureInt32(&ws.stamp, nr)
	ws.epoch++
	ep := ws.epoch
	P := int32(0)
	for g, v := range sig {
		if v == wgramAbsent {
			continue
		}
		P++
		fv := float32(v)
		for p := sw.postOff[g]; p < sw.postOff[g+1]; p++ {
			j := sw.postJ[p]
			if stamp[j] != ep {
				stamp[j] = ep
				acc[j] = 0
				shared[j] = 0
			}
			d := fv - sw.postV[p]
			if d < 0 {
				d = -d
			}
			if d > wgramCap {
				d = wgramCap
			}
			acc[j] += d
			shared[j]++
		}
	}

	// Approximate distance for every candidate; a bounded max-heap of the
	// smallest limit values yields the screen threshold.
	limit := sw.limit
	dtil := ensureFloat32(&ws.dtil, nr)
	h := ws.heap[:0]
	for j := 0; j < nr; j++ {
		if j == i {
			continue
		}
		var s int32
		var a float32
		if stamp[j] == ep {
			s, a = shared[j], acc[j]
		}
		var d float32
		switch {
		case !sw.rowOK[j]:
			d = sigMissingFarMean
		case s < wgramMinOverlap:
			d = WGramFar // exact: overlap transfers as an integer
		default:
			d = wgramCap*float32(P+sw.presCnt[j]-2*s) + a
		}
		dtil[j] = d
		if len(h) < limit {
			h = append(h, d)
			siftUp(h)
		} else if limit > 0 && d < h[0] {
			h[0] = d
			siftDown(h)
		}
	}
	T := math.MaxFloat64
	if limit > 0 && len(h) >= limit {
		T = float64(h[0]) + sweepScreenMargin
	}
	ws.heap = h[:0]

	// Exact distances for the survivors, via the reference kernel on the
	// reference-layout rows.
	cands := ws.cands[:0]
	for j := 0; j < nr; j++ {
		if j == i || float64(dtil[j]) > T {
			continue
		}
		var mean []float32
		if sw.rowOK[j] {
			mean = sw.meanBuf[j*G : (j+1)*G]
		}
		cands = append(cands, sweepCand{j, gs.meanDistance(sig, mean)})
	}
	ws.cands = cands
}

// sweepConfirm puts straggler i's surviving candidates into the reference
// (distance, index) order and edit-checks the first limit of them, keeping
// the closest confirmed one. Each check is bounded by min(k, bestD−1): a
// pair at or beyond the current best cannot replace it, which is exactly the
// reference's "ok && d < bestD" test. Once bestD is 0 nothing can replace
// it; the reference's remaining calls are counted without being made.
func (rr *roundRunner) sweepConfirm(w, i int) {
	sw := &rr.sweep
	ws := &sw.ws[w]
	sort.Sort(&ws.cands)
	cands := ws.cands
	limit := min(sw.limit, len(cands))
	k := rr.o.EditThreshold
	a := rr.reads[rr.reps[i]]
	bestJ, bestD := -1, k+1
	for n, c := range cands[:limit] {
		if bestD == 0 {
			sw.editCalls[i] += int32(limit - n)
			break
		}
		sw.editCalls[i]++
		if d, ok := rr.editScr[w].Within(a, rr.reads[rr.reps[c.j]], min(k, bestD-1)); ok {
			bestJ, bestD = c.j, d
		}
	}
	ws.cands = cands[:0]
	if bestJ >= 0 {
		sw.bestJ[i] = int32(bestJ)
	}
}

// siftUp restores the max-heap property after appending to h.
func siftUp[T int32 | float32](h []T) {
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] >= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// siftDown restores the max-heap property after replacing h[0].
func siftDown[T int32 | float32](h []T) {
	i, n := 0, len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		big := l
		if r := l + 1; r < n && h[r] > h[l] {
			big = r
		}
		if h[i] >= h[big] {
			break
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}
