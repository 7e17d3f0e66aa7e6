// Package recon implements the trace-reconstruction module of the pipeline
// (§VII): recreating the originally encoded strand from a cluster of noisy
// reads. Three algorithms are provided, as in the paper:
//
//   - BMA: the BMA-lookahead algorithm of Organick et al. — an incremental
//     left-to-right majority vote in which disagreeing reads are realigned
//     by guessing the most likely edit from a small lookahead window. Wrong
//     guesses propagate, so later indexes reconstruct less reliably.
//   - DoubleSidedBMA: runs BMA left-to-right for the left half and
//     right-to-left for the right half, concentrating the propagated errors
//     in the middle indexes (Lin et al.; §VII-B).
//   - NW: the paper's own algorithm (§VII-C) — a multiple sequence
//     alignment of the cluster via partial-order alignment
//     (internal/align), followed by a per-column majority vote, trimming
//     indel-heavy columns when the alignment exceeds the expected length.
//
// A fourth, Adaptive, is a per-cluster dispatcher: it runs the cheap BMA
// sweep first and accepts its consensus when a quick agreement check passes
// (full target length and every read within a small edit radius of the
// consensus, verified with edit.Scratch.Within, which stops as soon as a
// read is out of range); only disagreeing clusters pay for the O(nodes·m)
// POA alignment. Its output is always
// bit-identical to whichever of BMA or NW it selected — pinned by
// FuzzReconDispatch.
//
// All algorithms reconstruct clusters independently, so ReconstructAll fans
// out over a worker pool; each worker owns one Scratch holding every buffer
// the algorithms need (POA graph, edit-distance kernels, BMA lookahead and
// reversal buffers), so steady-state reconstruction performs no per-cluster
// table allocations.
package recon

import (
	"context"
	"runtime"

	"dnastore/internal/align"
	"dnastore/internal/dna"
	"dnastore/internal/edit"
	"dnastore/internal/exec"
)

// Algorithm reconstructs a consensus strand from a cluster of noisy reads.
// targetLen is the nominal encoded strand length; implementations aim to
// return exactly that many bases but may return fewer when a cluster is
// exhausted early. Degenerate clusters — no reads, only empty reads, or a
// non-positive targetLen — deterministically yield nil (an erasure for the
// outer code), never a panic.
type Algorithm interface {
	Name() string
	Reconstruct(reads []dna.Seq, targetLen int) dna.Seq
}

// Scratch owns every reusable buffer the reconstruction algorithms need: the
// POA graph with its DP tables, the edit-distance kernels' rows and bit
// vectors, the BMA pointer/lookahead buffers and the DoubleSidedBMA
// read-reversal slots. The zero value is ready to use; buffers grow on
// demand and are never shrunk. A Scratch must not be shared between
// goroutines: ReconstructAllContext holds one per worker, the same ownership
// rule scratchown enforces for align.Graph and edit.Scratch.
//
// Every buffer is fully rewritten before it is read on each call (pointers
// zeroed, lookahead windows filled per position, reversal slots rebuilt per
// cluster, the graph Reset on entry), so a panic salvaged mid-cluster cannot
// leak one cluster's state into the next.
//
//dnalint:scratch
type Scratch struct {
	graph    *align.Graph
	edit     edit.Scratch
	ptr      []int
	future   []dna.Base
	insBuf   dna.Seq
	reversed []dna.Seq
}

// poaGraph returns the scratch's POA graph, allocating it on first use so
// BMA-only workers never pay for one.
func (s *Scratch) poaGraph() *align.Graph {
	if s.graph == nil {
		s.graph = align.NewGraph()
	}
	return s.graph
}

// ScratchReconstructor is implemented by algorithms that can thread a
// per-worker Scratch through their reconstruction, avoiding per-cluster
// allocations. ReconstructScratch must return exactly what Reconstruct
// returns for the same inputs — the scratch changes cost, never output.
type ScratchReconstructor interface {
	Algorithm
	ReconstructScratch(sc *Scratch, reads []dna.Seq, targetLen int) dna.Seq
}

// degenerate reports whether a cluster has nothing reconstructable: no
// reads, only empty reads, or a non-positive target length. All algorithms
// return nil for such clusters instead of leaning on the worker pool's panic
// isolation.
func degenerate(reads []dna.Seq, targetLen int) bool {
	if targetLen <= 0 || len(reads) == 0 {
		return true
	}
	for _, r := range reads {
		if len(r) > 0 {
			return false
		}
	}
	return true
}

// growInts returns buf resized to length n, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// BMA is the baseline BMA-lookahead algorithm (§VII-A).
type BMA struct {
	// Lookahead is the window used to classify a disagreement as
	// substitution, insertion or deletion (default 3).
	Lookahead int
}

// Name implements Algorithm.
func (BMA) Name() string { return "bma" }

func (b BMA) lookahead() int {
	if b.Lookahead <= 0 {
		return 3
	}
	return b.Lookahead
}

// Reconstruct implements Algorithm.
func (b BMA) Reconstruct(reads []dna.Seq, targetLen int) dna.Seq {
	var sc Scratch
	return b.ReconstructScratch(&sc, reads, targetLen)
}

// ReconstructScratch implements ScratchReconstructor.
func (b BMA) ReconstructScratch(sc *Scratch, reads []dna.Seq, targetLen int) dna.Seq {
	if degenerate(reads, targetLen) {
		return nil
	}
	return bmaForward(sc, reads, targetLen, b.lookahead())
}

// bmaForward runs the left-to-right BMA-lookahead consensus. The pointer,
// predicted-consensus and insertion-hypothesis buffers come from the
// scratch; only the consensus itself is allocated.
//
//dnalint:hotpath
func bmaForward(sc *Scratch, reads []dna.Seq, targetLen int, w int) dna.Seq {
	sc.ptr = growInts(sc.ptr, len(reads))
	ptr := sc.ptr
	for i := range ptr {
		ptr[i] = 0
	}
	if cap(sc.future) < w {
		sc.future = make([]dna.Base, w) //dnalint:allow hotpathalloc -- amortized scratch growth, reused across every cluster this worker reconstructs
		sc.insBuf = make(dna.Seq, w)    //dnalint:allow hotpathalloc -- amortized scratch growth, reused across every cluster this worker reconstructs
	}
	future := sc.future[:w]
	insBuf := sc.insBuf[:w]
	out := make(dna.Seq, 0, targetLen) //dnalint:allow hotpathalloc -- the consensus escapes to the caller; one allocation per cluster by design
	for len(out) < targetLen {
		// Majority vote at the current pointers.
		var votes [dna.NumBases]int
		active := 0
		for r, p := range ptr {
			if p < len(reads[r]) {
				votes[reads[r][p]]++
				active++
			}
		}
		if active == 0 {
			break
		}
		best := dna.A
		for bb := dna.Base(1); bb < dna.NumBases; bb++ {
			if votes[bb] > votes[best] {
				best = bb
			}
		}
		// Predicted upcoming consensus: per-offset majority over the reads
		// that agree with the vote (their next bases), falling back to all
		// active reads when nobody agrees.
		for k := 0; k < w; k++ {
			var fv [dna.NumBases]int
			any := false
			for r, p := range ptr {
				if p < len(reads[r]) && reads[r][p] == best && p+1+k < len(reads[r]) {
					fv[reads[r][p+1+k]]++
					any = true
				}
			}
			if !any {
				for r, p := range ptr {
					if p+1+k < len(reads[r]) {
						fv[reads[r][p+1+k]]++
					}
				}
			}
			f := dna.A
			for bb := dna.Base(1); bb < dna.NumBases; bb++ {
				if fv[bb] > fv[f] {
					f = bb
				}
			}
			future[k] = f
		}
		out = append(out, best) //dnalint:allow hotpathalloc -- appends into the pre-sized consensus buffer above
		// Advance pointers, realigning disagreeing reads by the most likely
		// edit (§VII-A).
		for r := range ptr {
			p := ptr[r]
			read := reads[r]
			if p >= len(read) {
				continue
			}
			if read[p] == best {
				ptr[r] = p + 1
				continue
			}
			// Hypothesis scores over the lookahead window. The upcoming
			// consensus is predicted as [best, future...]; each hypothesis
			// aligns the read's remaining bases differently against it.
			subScore := matchScore(read, p+1, future)
			delScore := matchScore(read, p, future)
			insBuf[0] = best
			copy(insBuf[1:], future[:w-1])
			insScore := matchScore(read, p+1, insBuf)
			switch {
			case subScore >= delScore && subScore >= insScore:
				ptr[r] = p + 1 // substitution: consume the wrong base
			case delScore >= insScore:
				// deletion in the read: the consensus base is missing, the
				// pointer stays for the next round
			default:
				ptr[r] = p + 2 // insertion: skip the spurious base and best
			}
		}
	}
	return out
}

// matchScore counts matches of read[from:] against the expected bases,
// normalized to tolerate running off the end of the read (missing positions
// score as half a mismatch).
//
//dnalint:hotpath
func matchScore(read dna.Seq, from int, expect []dna.Base) int {
	score := 0
	for k, e := range expect {
		i := from + k
		if i >= len(read) {
			score-- // slight penalty so shorter tails lose ties
			continue
		}
		if read[i] == e {
			score += 2
		} else {
			score -= 2
		}
	}
	return score
}

// reverseInto writes src reversed into dst; the slices must have equal
// length and not alias.
//
//dnalint:hotpath
func reverseInto(dst, src dna.Seq) {
	n := len(src)
	for i := 0; i < n; i++ {
		dst[i] = src[n-1-i]
	}
}

// reverseInPlace reverses s.
//
//dnalint:hotpath
func reverseInPlace(s dna.Seq) {
	for l, r := 0, len(s)-1; l < r; l, r = l+1, r-1 {
		s[l], s[r] = s[r], s[l]
	}
}

// DoubleSidedBMA reconstructs the left half left-to-right and the right half
// right-to-left, joining in the middle (§VII-B).
type DoubleSidedBMA struct {
	Lookahead int
}

// Name implements Algorithm.
func (DoubleSidedBMA) Name() string { return "double-sided-bma" }

// Reconstruct implements Algorithm.
func (d DoubleSidedBMA) Reconstruct(reads []dna.Seq, targetLen int) dna.Seq {
	var sc Scratch
	return d.ReconstructScratch(&sc, reads, targetLen)
}

// ReconstructScratch implements ScratchReconstructor. The per-read reversal
// buffers live in per-worker scratch slots (sc.reversed), so the right-half
// pass costs no slice-of-slices allocation per cluster — the regression this
// fixes allocated len(reads)+1 sequences per call.
func (d DoubleSidedBMA) ReconstructScratch(sc *Scratch, reads []dna.Seq, targetLen int) dna.Seq {
	if degenerate(reads, targetLen) {
		return nil
	}
	w := BMA{Lookahead: d.Lookahead}.lookahead()
	leftLen := (targetLen + 1) / 2
	rightLen := targetLen - leftLen
	left := bmaForward(sc, reads, leftLen, w)
	if cap(sc.reversed) < len(reads) {
		grown := make([]dna.Seq, len(reads))
		copy(grown, sc.reversed) // keep the capacity of existing slots
		sc.reversed = grown
	}
	rev := sc.reversed[:len(reads)]
	for i, r := range reads {
		buf := rev[i]
		if cap(buf) < len(r) {
			buf = make(dna.Seq, len(r))
		}
		buf = buf[:len(r)]
		reverseInto(buf, r)
		rev[i] = buf
	}
	right := bmaForward(sc, rev, rightLen, w)
	reverseInPlace(right) // bmaForward returns a fresh buffer, safe in place
	out := make(dna.Seq, 0, len(left)+len(right))
	out = append(out, left...)
	out = append(out, right...)
	return out
}

// NW is the paper's Needleman–Wunsch/POA reconstruction (§VII-C): multiple
// sequence alignment of the cluster, per-column majority, indel-heavy
// columns trimmed to the target length.
type NW struct{}

// Name implements Algorithm.
func (NW) Name() string { return "needleman-wunsch" }

// Reconstruct implements Algorithm.
func (NW) Reconstruct(reads []dna.Seq, targetLen int) dna.Seq {
	if degenerate(reads, targetLen) {
		return nil
	}
	return align.Consensus(reads, targetLen)
}

// ReconstructScratch implements ScratchReconstructor: consensus goes through
// the scratch's per-worker POA graph, whose DP tables and node storage are
// reused across every cluster the worker reconstructs.
func (NW) ReconstructScratch(sc *Scratch, reads []dna.Seq, targetLen int) dna.Seq {
	if degenerate(reads, targetLen) {
		return nil
	}
	return sc.poaGraph().ConsensusOf(reads, targetLen)
}

// Adaptive dispatches per cluster between the BMA sweep and the NW/POA
// consensus: run the cheap algorithm first, verify, and only pay for the
// expensive one when verification fails. The BMA consensus is accepted
// when it reaches the full target length and every non-empty read lies
// within MaxDist edits of it (checked with edit.Scratch.Within, which bails
// early on disagreeing reads). Easy low-noise
// clusters — the overwhelming majority at realistic error rates — never pay
// the O(nodes·m) graph alignment.
//
// The output is bit-identical to whichever algorithm the dispatch selected:
// accepted clusters return exactly BMA's consensus, rejected ones exactly
// NW's. That is the property FuzzReconDispatch pins. It makes no accuracy
// claim: a rejected cluster gets NW's consensus even where BMA's would have
// decoded better (see the reconstruction item in ROADMAP.md).
type Adaptive struct {
	// Lookahead is the BMA lookahead window (default 3).
	Lookahead int
	// MaxDist is the per-read agreement radius in edits. <= 0 uses
	// max(3, targetLen/12) — comfortably above the edits a read carries at
	// the simulator's operating points when the consensus is right, and far
	// below the distance to a consensus that went off the rails.
	MaxDist int
}

// Name implements Algorithm.
func (Adaptive) Name() string { return "adaptive" }

// Reconstruct implements Algorithm.
func (a Adaptive) Reconstruct(reads []dna.Seq, targetLen int) dna.Seq {
	var sc Scratch
	return a.ReconstructScratch(&sc, reads, targetLen)
}

// ReconstructScratch implements ScratchReconstructor.
func (a Adaptive) ReconstructScratch(sc *Scratch, reads []dna.Seq, targetLen int) dna.Seq {
	out, _ := a.reconstruct(sc, reads, targetLen)
	return out
}

// reconstruct returns the consensus and whether the POA path produced it
// (false: the BMA consensus passed the agreement check, or the cluster was
// degenerate). The second return exists for the differential fuzzer, which
// must compare against the reference implementation of the selected path.
func (a Adaptive) reconstruct(sc *Scratch, reads []dna.Seq, targetLen int) (dna.Seq, bool) {
	if degenerate(reads, targetLen) {
		return nil, false
	}
	w := BMA{Lookahead: a.Lookahead}.lookahead()
	cons := bmaForward(sc, reads, targetLen, w)
	if a.agrees(sc, reads, cons, targetLen) {
		return cons, false
	}
	return NW{}.ReconstructScratch(sc, reads, targetLen), true
}

// maxDist returns the effective agreement radius for a target length.
func (a Adaptive) maxDist(targetLen int) int {
	if a.MaxDist > 0 {
		return a.MaxDist
	}
	k := targetLen / 12
	if k < 3 {
		k = 3
	}
	return k
}

// agrees is the quick agreement check: the BMA consensus must reach the full
// target length (BMA exhausting a cluster early is itself a disagreement
// signal) and every non-empty read must be within the agreement radius.
// Empty reads carry no signal and are ignored, matching how the vote treats
// them.
func (a Adaptive) agrees(sc *Scratch, reads []dna.Seq, cons dna.Seq, targetLen int) bool {
	if len(cons) != targetLen {
		return false
	}
	k := a.maxDist(targetLen)
	for _, r := range reads {
		if len(r) == 0 {
			continue
		}
		if _, ok := sc.edit.Within(r, cons, k); !ok {
			return false
		}
	}
	return true
}

// ConsensusWithConfidence reconstructs a cluster with the NW/POA algorithm
// and additionally reports a per-strand confidence: the mean vote fraction
// of the kept consensus columns — exactly the columns whose majority bases
// form the returned consensus, after the §VII-C indel-heavy trim. Columns
// the trim discarded do not dilute the score (they voted for nothing in the
// output). Confidence near 1 means the reads agree almost everywhere; low
// confidence flags clusters whose consensus should be treated with suspicion
// (e.g. dropped in favour of an erasure). An empty consensus has no kept
// columns and reports confidence 0.
func ConsensusWithConfidence(reads []dna.Seq, targetLen int) (dna.Seq, float64) {
	if len(reads) == 0 {
		return nil, 0
	}
	g := align.NewGraph()
	for _, r := range reads {
		g.AddSequence(r)
	}
	consensus, kept := g.ConsensusColumns(targetLen)
	if len(kept) == 0 {
		return consensus, 0
	}
	total := 0.0
	for _, c := range kept {
		b, _ := c.Majority()
		total += float64(c.Counts[b]) / float64(len(reads))
	}
	return consensus, total / float64(len(kept))
}

// ReconstructAll reconstructs every cluster in parallel and returns one
// consensus strand per cluster, in cluster order. Empty clusters yield nil.
// workers <= 0 uses GOMAXPROCS; zero clusters and workers exceeding the
// cluster count are both fine (the pool is clamped to the work available).
func ReconstructAll(clusters [][]dna.Seq, targetLen int, algo Algorithm, workers int) []dna.Seq {
	//dnalint:allow errflow -- background context never cancels, the only error ReconstructAllContext can return
	out, _ := ReconstructAllContext(context.Background(), clusters, targetLen, algo, workers)
	return out
}

// ReconstructAllContext is ReconstructAll with cooperative cancellation:
// workers check ctx between clusters and the call returns the context's
// error when it is cancelled. An Algorithm that panics on one cluster loses
// only that cluster's consensus (nil, which the decoder treats as an
// erasure); the panic never escapes the worker pool.
func ReconstructAllContext(ctx context.Context, clusters [][]dna.Seq, targetLen int, algo Algorithm, workers int) ([]dna.Seq, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]dna.Seq, len(clusters))
	if len(clusters) == 0 {
		return out, context.Cause(ctx)
	}
	if workers > len(clusters) {
		workers = len(clusters)
	}
	// Each worker owns one Scratch slot: algorithms that implement
	// ScratchReconstructor reuse its POA graph, edit kernels and BMA
	// buffers across every cluster that worker reconstructs, instead of
	// allocating fresh tables per cluster. exec.ParallelForW guarantees
	// calls for one worker ID never overlap, so slot w is never shared —
	// see DESIGN.md "Performance". Per-item and worker-level panic
	// containment live in the executor: a panicking cluster stays nil,
	// which the decoder treats as an erasure.
	scratch := make([]Scratch, workers)
	exec.ParallelForW(ctx, workers, len(clusters), func(w, i int) {
		if len(clusters[i]) > 0 {
			out[i] = reconstructOne(algo, &scratch[w], clusters[i], targetLen)
		}
	})
	if err := context.Cause(ctx); err != nil {
		return nil, err
	}
	return out, nil
}

// reconstructOne guards a single consensus computation: a panicking
// Algorithm yields a nil consensus (an erasure for the outer code, §IV)
// instead of crashing the process. Algorithms implementing
// ScratchReconstructor get the worker's Scratch; a panic mid-cluster is safe
// because every scratch buffer is fully rewritten before it is read on the
// next call (and the POA graph begins with a Reset that discards any
// half-built state).
func reconstructOne(algo Algorithm, sc *Scratch, cluster []dna.Seq, targetLen int) (out dna.Seq) {
	defer func() {
		if recover() != nil {
			out = nil
		}
	}()
	if sr, ok := algo.(ScratchReconstructor); ok {
		return sr.ReconstructScratch(sc, cluster, targetLen)
	}
	return algo.Reconstruct(cluster, targetLen)
}
