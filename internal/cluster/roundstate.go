// Allocation-free round state for the clustering fast path. The reference
// round (reference.go) rebuilds map[int][]int members, map[int]int reps,
// map[int][]int32 sigs and a string-keyed partition map every round; at tens
// of thousands of clusters those maps dominate the round's time and churn
// the heap. The fast path keeps the same algorithm but holds every per-round
// structure in a roundRunner's reusable flat slices:
//
//   - the union-find snapshot becomes CSR form (dense ascending roots,
//     per-root member spans),
//   - partition keys become packed uint64s (2 bits per base, left-aligned,
//     plus an anchor/prefix tag bit and the length) whose numeric order
//     equals the reference keys' string order; they are computed per dense
//     root in parallel, and a stable LSD radix sort of the roots by key
//     (radixOrder, constant bytes skipped) reproduces the reference
//     partition iteration exactly,
//   - signatures land in flat per-root rows (bit-packed words for q-gram,
//     []int32 for w-gram) with a validity flag replacing nil-as-missing;
//     with 4-gram q-grams a row is a gather from the read's presence set
//     (qsigGather), built once per clustering call, instead of a rescan,
//   - merge proposals append to per-worker buffers with per-partition
//     (start, count) spans, applied in partition order.
//
// Only the rng draws (anchor, grams, one representative per root), the
// union-find snapshot and the proposal application stay serial.
//
// Steady-state rounds allocate nothing (pinned by TestRoundRunnerZeroAlloc);
// every decision, rng draw and Stats counter is bit-identical to the
// reference path (pinned by the fixed-seed identity tests).
package cluster

import (
	"context"
	"time"

	"dnastore/internal/dna"
	"dnastore/internal/edit"
	"dnastore/internal/exec"
	"dnastore/internal/xrand"
)

// maxPackedPartition is the longest partition key the packed uint64 encoding
// holds (56 bits of bases + 7 bits of length + the tag bit). Longer
// PartitionLen configurations fall back to the reference path.
const maxPackedPartition = 28

// radixOrder fills order (len(keys)) with the dense roots 0..len(keys)-1
// sorted stably by keys[root]: an LSD radix sort, one 8-bit digit per pass,
// ping-ponging between order and tmp (same length). Digits on which every
// key agrees are skipped: with the default PartitionLen only the
// tag/leading-base byte and the next one vary, so a round's sort is two
// linear passes. Roots start in ascending order and the sort is stable, so
// the result is the (key, root) order the reference's sorted string keys
// give (pinned by TestPackedPartitionKeys).
//
//dnalint:hotpath
func radixOrder(keys []uint64, order, tmp []int32) {
	for d := range order {
		order[d] = int32(d)
	}
	if len(keys) < 2 {
		return
	}
	and, or := ^uint64(0), uint64(0)
	for _, k := range keys {
		and &= k
		or |= k
	}
	src, dst := order, tmp
	var count [256]int
	for shift := uint(0); shift < 64; shift += 8 {
		if (and^or)>>shift&0xff == 0 {
			continue
		}
		count = [256]int{}
		for _, r := range src {
			count[keys[r]>>shift&0xff]++
		}
		sum := 0
		for b, c := range count {
			count[b] = sum
			sum += c
		}
		for _, r := range src {
			b := keys[r] >> shift & 0xff
			dst[count[b]] = r
			count[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &order[0] {
		copy(order, src)
	}
}

// int32Slice sorts []int32 ascending without the sort.Slice closure.
type int32Slice []int32

func (p *int32Slice) Len() int           { return len(*p) }
func (p *int32Slice) Less(i, j int) bool { return (*p)[i] < (*p)[j] }
func (p *int32Slice) Swap(i, j int)      { (*p)[i], (*p)[j] = (*p)[j], (*p)[i] }

// packPartKey encodes a partition key so that uint64 order equals the
// reference string keys' order. Layout: bit 63 is the tag (0 for anchor "a:"
// keys, 1 for prefix "p:" keys — 'a' < 'p' keeps anchors first); bits 62..7
// hold the bases left-aligned at 2 bits each (A=0 < C=1 < G=2 < T=3 matches
// the "ACGT" byte order, and left-alignment zero-fills short keys); bits
// 6..0 hold the length, which breaks the tie exactly like "shorter string
// sorts first". The encoding is injective for len(bases) <= maxPackedPartition.
func packPartKey(prefixTag bool, bases dna.Seq) uint64 {
	var b uint64
	for i, base := range bases {
		b |= uint64(base&3) << (2 * uint(maxPackedPartition-1-i))
	}
	key := b<<7 | uint64(len(bases))
	if prefixTag {
		key |= 1 << 63
	}
	return key
}

// packedKeyHash is fnv1a of the reference string key ("a:"/"p:" + bases as
// ACGT letters), computed from the packed key without building the string —
// it feeds the per-partition rng stream, which must match the reference
// path's xrand.Derive(seed, fnv1a(key)^round) draw for draw.
func packedKeyHash(key uint64) uint64 {
	h := uint64(0xcbf29ce484222325)
	tag := byte('a')
	if key>>63 != 0 {
		tag = 'p'
	}
	h = (h ^ uint64(tag)) * 0x100000001b3
	h = (h ^ uint64(':')) * 0x100000001b3
	n := int(key & 0x7f)
	for i := 0; i < n; i++ {
		b := dna.Base((key >> (7 + 2*uint(maxPackedPartition-1-i))) & 3)
		h = (h ^ uint64(b.Byte())) * 0x100000001b3
	}
	return h
}

// fillRandomSeq draws bases into s with exactly dna.Random's rng consumption
// (pinned by TestFillRandomSeqMatchesDnaRandom), so scratch-backed anchors
// and gram sets see the same stream as the reference path's freshly
// allocated ones.
func fillRandomSeq(rng *xrand.RNG, s dna.Seq) {
	for i := range s {
		s[i] = dna.Base(rng.Intn(dna.NumBases))
	}
}

// gramSetScratch rebuilds a gramSet (and its chain index) in place each
// round: the gram sequences alias one flat base buffer, so drawing a fresh
// set costs no allocation after warmup.
//
//dnalint:scratch
type gramSetScratch struct {
	buf   dna.Seq
	grams []dna.Seq
	codes []uint32
	set   gramSet
	idx   gramIndex
}

// fill redraws the scratch's gram set: count grams of length q from rng,
// consuming rng exactly like newGramSet.
func (g *gramSetScratch) fill(rng *xrand.RNG, mode SignatureMode, count, q int) {
	if cap(g.buf) < count*q {
		g.buf = make(dna.Seq, count*q)
	}
	if cap(g.grams) < count {
		g.grams = make([]dna.Seq, count)
	}
	if cap(g.codes) < count {
		g.codes = make([]uint32, count)
	}
	buf, grams, codes := g.buf[:count*q], g.grams[:count], g.codes[:count]
	for i := 0; i < count; i++ {
		s := buf[i*q : (i+1)*q : (i+1)*q]
		fillRandomSeq(rng, s)
		grams[i] = s
		codes[i] = packGram(s)
	}
	g.set = gramSet{mode: mode, q: q, grams: grams, codes: codes}
	g.idx.build(g.set)
}

// pairProposal is one proposed merge between two cluster roots (read ids);
// cheap marks a merge decided by signature distance alone, counted into
// Stats.CheapMerges only if the union is actually applied.
type pairProposal struct {
	a, b  int32
	cheap bool
}

// anchorIndex is dna.Seq.Index specialized for the short per-round anchor:
// one rolling 2-bit comparison per base instead of the general nested scan.
// Same result as r.Index(anchor) for canonical sequences (bases 0..3, the
// package-wide invariant the signature kernels already rely on); anchors too
// long to pack fall back to the general search.
func anchorIndex(r, anchor dna.Seq) int {
	m := len(anchor)
	if m == 0 || m > 31 {
		return r.Index(anchor)
	}
	if m > len(r) {
		return -1
	}
	var target, code uint64
	for _, b := range anchor {
		target = target<<2 | uint64(b&3)
	}
	mask := uint64(1)<<(2*uint(m)) - 1
	for i, b := range r {
		code = (code<<2 | uint64(b&3)) & mask
		if i >= m-1 && code == target {
			return i - m + 1
		}
	}
	return -1
}

// roundRunner owns every reusable buffer of the fast round loop and the
// indexed straggler sweep. One runner serves one ClusterContext call; its
// parallel phases hand workers disjoint row ranges of the flat slices and
// per-worker scratch slots, so no state is shared mutably across goroutines.
//
//dnalint:scratch
type roundRunner struct {
	ctx                 context.Context
	reads               []dna.Seq
	pres                []gramPresence // per-read 4-gram sets; nil unless QGram with GramLen presQ
	uf                  *unionFind
	o                   Options
	thetaLow, thetaHigh int
	stats               *Stats
	editScr             []edit.Scratch

	// CSR snapshot of the union-find, rebuilt in place per round/pass:
	// dense index d covers root read id roots[d] with members (ascending
	// read ids) members[memberOff[d]:memberOff[d+1]].
	rootOf    []int32 // read id -> root read id
	rootIdx   []int32 // root read id -> dense index + 1 (0 = not a root)
	roots     []int32 // dense -> root read id, ascending
	counts    []int32 // scratch: per-root counts, then fill cursors
	memberOff []int32
	members   []int32
	reps      []int32 // dense -> representative read id

	// Partition grouping: keys holds each dense root's packed partition
	// key, order the roots sorted by (key, root) (orderTmp is the radix
	// sort's second buffer), groupOff the group boundaries in order; aw is
	// the worker count the groups were strided over (locates each group's
	// proposal buffer).
	keys     []uint64
	order    []int32
	orderTmp []int32
	groupOff []int32
	aw       int

	// Signatures, one row per dense root. sigOK replaces the reference
	// path's nil-signature convention: false means the row carries no
	// evidence (its item was skipped or panicked) and never merges.
	// sigNeeded gates the signature pass to roots in partition groups of
	// size >= 2 — the only rows phase 1 ever reads. Signatures consume no
	// rng and a skipped row is never consulted, so the lazy pass is
	// decision-identical to the reference's compute-all pass.
	sigQ      []uint64 // packed q-gram rows, qw words each
	sigW      []int32  // w-gram rows, NumGrams entries each
	sigOK     []bool
	sigNeeded []bool
	qw        int

	// Per-round randomness and grams.
	gs        gramSetScratch
	gsRng     xrand.RNG // reseeded per round/pass for gram drawing
	anchorBuf dna.Seq
	round     int
	prng      []xrand.RNG // per-worker, reseeded per sampled partition

	// Merge proposals: per-worker append buffers; group gi's span is
	// wprops[gi%aw][propStart[gi]:propStart[gi]+propCount[gi]], with
	// propCount -1 marking a group whose item never completed.
	wprops    [][]pairProposal
	propStart []int32
	propCount []int32
	editCalls []int32

	// Dispatch closures, created once so steady-state rounds do not
	// allocate them per ParallelForW call.
	keyItemFn   func(w, i int)
	sigItemFn   func(w, i int)
	groupItemFn func(w, i int)

	sweep sweepIndex
}

// newRoundRunner prepares a runner over reads. pres holds every read's
// presence set when signatures are gathered (QGram, GramLen presQ), else nil.
func newRoundRunner(ctx context.Context, reads []dna.Seq, pres []gramPresence, uf *unionFind, o Options, thetaLow, thetaHigh int, editScr []edit.Scratch, stats *Stats) *roundRunner {
	n := len(reads)
	rr := &roundRunner{
		ctx: ctx, reads: reads, pres: pres, uf: uf, o: o,
		thetaLow: thetaLow, thetaHigh: thetaHigh,
		stats: stats, editScr: editScr,
		rootOf:    make([]int32, n),
		rootIdx:   make([]int32, n),
		memberOff: make([]int32, n+1),
		members:   make([]int32, n),
		anchorBuf: make(dna.Seq, o.AnchorLen),
		qw:        sigWords(o.NumGrams),
		prng:      make([]xrand.RNG, o.Workers),
		wprops:    make([][]pairProposal, o.Workers),
	}
	rr.keyItemFn = rr.keyItem
	rr.sigItemFn = rr.sigItem
	rr.groupItemFn = rr.groupItem
	return rr
}

// buildState snapshots the union-find into the CSR slices and returns the
// root count. Roots come out dense and ascending and members ascend within
// each root — the exact iteration order of the reference path's sorted maps.
func (rr *roundRunner) buildState() int {
	n := len(rr.reads)
	rootOf, rootIdx := rr.rootOf, rr.rootIdx
	for i := range rootIdx {
		rootIdx[i] = 0
	}
	for i := 0; i < n; i++ {
		r := int32(rr.uf.find(i))
		rootOf[i] = r
		rootIdx[r] = 1
	}
	roots := rr.roots[:0]
	for r := 0; r < n; r++ {
		if rootIdx[r] != 0 {
			roots = append(roots, int32(r))
			rootIdx[r] = int32(len(roots))
		}
	}
	rr.roots = roots
	nr := len(roots)
	counts := ensureInt32(&rr.counts, nr)
	for d := range counts {
		counts[d] = 0
	}
	for i := 0; i < n; i++ {
		counts[rootIdx[rootOf[i]]-1]++
	}
	off := rr.memberOff[:nr+1]
	off[0] = 0
	for d := 0; d < nr; d++ {
		off[d+1] = off[d] + counts[d]
		counts[d] = off[d] // reuse as fill cursor
	}
	members := rr.members[:n]
	for i := 0; i < n; i++ {
		d := rootIdx[rootOf[i]] - 1
		members[counts[d]] = int32(i)
		counts[d]++
	}
	return nr
}

// runRound executes one clustering round: identical decisions, rng draws and
// Stats increments as referenceRound, no steady-state allocations.
func (rr *roundRunner) runRound(rng *xrand.RNG, round int) {
	o := rr.o
	rr.round = round
	// Fresh anchor and grams every round, consuming rng like the reference.
	fillRandomSeq(rng, rr.anchorBuf)
	rr.gsRng.ReseedDerive(o.Seed, uint64(round)+1)
	rr.gs.fill(&rr.gsRng, o.Mode, o.NumGrams, o.GramLen)

	nr := rr.buildState()
	// One representative per cluster: one Intn per dense root, ascending —
	// the reference's sorted-roots draw order.
	reps := ensureInt32(&rr.reps, nr)
	off, members := rr.memberOff, rr.members
	for d := 0; d < nr; d++ {
		lo, hi := off[d], off[d+1]
		reps[d] = members[lo+int32(rng.Intn(int(hi-lo)))]
	}

	// Partition clusters by the l bases after the anchor (prefix fallback),
	// as packed keys computed per dense root in parallel; a stable sort of
	// the roots by key reproduces the reference path's sorted-string-key
	// partition map exactly. Keys are pre-set to 0 (the empty anchor key,
	// which no real key equals), so an item that never completes groups
	// harmlessly instead of keeping a previous round's key.
	keys := ensureUint64(&rr.keys, nr)
	for d := range keys {
		keys[d] = 0
	}
	exec.ParallelForW(rr.ctx, o.Workers, nr, rr.keyItemFn)
	order := ensureInt32(&rr.order, nr)
	radixOrder(keys, order, ensureInt32(&rr.orderTmp, nr))
	groupOff := append(rr.groupOff[:0], 0)
	for i := 1; i < nr; i++ {
		if keys[order[i]] != keys[order[i-1]] {
			groupOff = append(groupOff, int32(i))
		}
	}
	if nr > 0 {
		groupOff = append(groupOff, int32(nr))
	}
	rr.groupOff = groupOff
	ngroups := len(groupOff) - 1
	if ngroups < 0 {
		ngroups = 0
	}

	// Signatures for representatives in multi-member partition groups, in
	// parallel: flat rows + validity. Roots alone in their partition are
	// never compared, so their rows are skipped outright — the reference
	// computes them too, but no decision ever reads them.
	sigStart := time.Now() //dnalint:allow determinism -- Stats timing telemetry; never feeds a clustering decision
	if o.Mode == QGram {
		rr.sigQ = ensureUint64(&rr.sigQ, nr*rr.qw)
	} else {
		rr.sigW = ensureInt32(&rr.sigW, nr*o.NumGrams)
	}
	if cap(rr.sigOK) < nr {
		rr.sigOK = make([]bool, nr)
		rr.sigNeeded = make([]bool, nr)
	}
	rr.sigOK = rr.sigOK[:nr]
	rr.sigNeeded = rr.sigNeeded[:nr]
	for d := range rr.sigOK {
		rr.sigOK[d] = false
		rr.sigNeeded[d] = false
	}
	for gi := 0; gi < ngroups; gi++ {
		lo, hi := groupOff[gi], groupOff[gi+1]
		if hi-lo < 2 {
			continue
		}
		for _, d := range order[lo:hi] {
			rr.sigNeeded[d] = true
		}
	}
	exec.ParallelForW(rr.ctx, o.Workers, nr, rr.sigItemFn)
	rr.stats.SignatureTime += time.Since(sigStart)

	// Phase 1 (parallel, deterministic): per-partition merge proposals.
	partStart := time.Now() //dnalint:allow determinism -- Stats timing telemetry; never feeds a clustering decision
	rr.propStart = ensureInt32(&rr.propStart, ngroups)
	rr.propCount = ensureInt32(&rr.propCount, ngroups)
	rr.editCalls = ensureInt32(&rr.editCalls, ngroups)
	for gi := 0; gi < ngroups; gi++ {
		rr.propCount[gi] = -1
		rr.editCalls[gi] = 0
	}
	aw := o.Workers
	if aw > ngroups {
		aw = ngroups
	}
	if aw < 1 {
		aw = 1
	}
	rr.aw = aw
	for w := 0; w < aw; w++ {
		rr.wprops[w] = rr.wprops[w][:0]
	}
	exec.ParallelForW(rr.ctx, o.Workers, ngroups, rr.groupItemFn)

	// Phase 2 (serial): apply proposals in partition order, exactly like the
	// reference path — union application order decides which read id ends up
	// as a component's root, which later rounds' rng draws observe.
	for gi := 0; gi < ngroups; gi++ {
		rr.stats.EditDistanceCalls += int(rr.editCalls[gi])
		if c := rr.propCount[gi]; c > 0 {
			w := gi % aw
			for _, p := range rr.wprops[w][rr.propStart[gi] : rr.propStart[gi]+c] {
				if rr.uf.union(int(p.a), int(p.b)) {
					rr.stats.Merges++
					if p.cheap {
						rr.stats.CheapMerges++
					}
				}
			}
		}
	}
	rr.stats.ClusterTime += time.Since(partStart)
}

// keyItem computes dense root d's partition key from its representative:
// the PartitionLen bases after the round's anchor, or the read's prefix when
// the anchor is missing or too close to the end.
func (rr *roundRunner) keyItem(_, d int) {
	o := rr.o
	r := rr.reads[rr.reps[d]]
	if pos := anchorIndex(r, rr.anchorBuf); pos >= 0 && pos+o.AnchorLen+o.PartitionLen <= len(r) {
		rr.keys[d] = packPartKey(false, r[pos+o.AnchorLen:pos+o.AnchorLen+o.PartitionLen])
		return
	}
	rr.keys[d] = packPartKey(true, r[:min(o.PartitionLen, len(r))])
}

// sigItem computes dense root i's representative signature into its flat row
// (worker w). The validity flag is set last: a panic or cancellation leaves
// the row marked missing, the fast path's equivalent of a nil signature.
// Rows no phase-1 pair will read (singleton partition groups) are skipped.
func (rr *roundRunner) sigItem(_, i int) {
	if !rr.sigNeeded[i] {
		return
	}
	read := rr.reads[rr.reps[i]]
	switch {
	case rr.pres != nil:
		qsigGather(rr.gs.set.codes, &rr.pres[rr.reps[i]], rr.sigQ[i*rr.qw:(i+1)*rr.qw])
	case rr.o.Mode == QGram:
		rr.gs.idx.qsigBitsInto(rr.gs.set, read, rr.sigQ[i*rr.qw:(i+1)*rr.qw])
	default:
		g := rr.o.NumGrams
		rr.gs.idx.signatureInto(rr.gs.set, read, rr.sigW[i*g:(i+1)*g])
	}
	rr.sigOK[i] = true
}

// groupItem proposes merges within partition group gi (worker w): the same
// pair order, sampling draws, threshold band and edit confirmations as the
// reference partition loop.
func (rr *roundRunner) groupItem(w, gi int) {
	o := rr.o
	lo, hi := int(rr.groupOff[gi]), int(rr.groupOff[gi+1])
	group := rr.order[lo:hi]
	buf := rr.wprops[w]
	rr.propStart[gi] = int32(len(buf))
	if len(group) < 2 {
		rr.propCount[gi] = 0
		return
	}
	pairs := len(group) * (len(group) - 1) / 2
	stride := 1
	if pairs > o.MaxPartitionPairs {
		stride = pairs/o.MaxPartitionPairs + 1
	}
	prng := &rr.prng[w]
	if stride > 1 {
		// The reference derives this stream per partition but only consumes
		// it when sampling; deriving lazily keeps unsampled groups free and
		// the consumed stream bit-identical.
		prng.ReseedDerive(o.Seed, packedKeyHash(rr.keys[group[0]])^uint64(rr.round))
	}
	editCalls := int32(0)
	for ai := 0; ai < len(group); ai++ {
		for bi := ai + 1; bi < len(group); bi++ {
			if stride > 1 && prng.Intn(stride) != 0 {
				continue
			}
			a, b := int(group[ai]), int(group[bi])
			var d int
			switch {
			case !rr.sigOK[a] || !rr.sigOK[b]:
				d = sigMissingFar
			case o.Mode == QGram:
				d = hammingPacked(rr.sigQ[a*rr.qw:(a+1)*rr.qw], rr.sigQ[b*rr.qw:(b+1)*rr.qw])
			default:
				g := o.NumGrams
				d = wgramDistanceWithin(rr.sigW[a*g:(a+1)*g], rr.sigW[b*g:(b+1)*g], rr.thetaHigh)
			}
			if d > rr.thetaHigh {
				continue
			}
			ra, rb := rr.roots[a], rr.roots[b]
			if d <= rr.thetaLow {
				buf = append(buf, pairProposal{ra, rb, true})
				continue
			}
			editCalls++
			if _, ok := rr.editScr[w].Within(rr.reads[rr.reps[a]], rr.reads[rr.reps[b]], o.EditThreshold); ok {
				buf = append(buf, pairProposal{ra, rb, false})
			}
		}
	}
	rr.wprops[w] = buf
	rr.editCalls[gi] = editCalls
	rr.propCount[gi] = int32(len(buf)) - rr.propStart[gi]
}

// ensureUint64 and ensureInt32 grow flat rows, reusing capacity.
func ensureUint64(s *[]uint64, n int) []uint64 {
	if cap(*s) < n {
		*s = make([]uint64, n)
	}
	*s = (*s)[:n]
	return *s
}

func ensureInt32(s *[]int32, n int) []int32 {
	if cap(*s) < n {
		*s = make([]int32, n)
	}
	*s = (*s)[:n]
	return *s
}
