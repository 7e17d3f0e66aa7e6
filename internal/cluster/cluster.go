// Package cluster implements the clustering module of the pipeline (§VI):
// grouping noisy sequenced reads so that, ideally, each cluster holds all
// reads of one originally encoded strand. It follows the distributed
// algorithm of Rashtchian et al. (NeurIPS'17): reads start as singleton
// clusters; each round partitions clusters by a random anchor hash, compares
// cheap gram signatures of representatives within each partition, and merges
// clusters whose representatives are close — confirming with a (banded)
// edit-distance computation only when the signature distance falls between
// two thresholds. The thresholds can be tuned automatically (§VI-B, Fig. 5).
//
// Two signature schemes are provided: the baseline q-gram presence bits with
// Hamming distance, and the paper's w-gram first-occurrence positions with
// the L1 norm (§VI-C).
//
// Rounds are parallelized over partitions. Merge decisions are computed
// independently of merge application, so results are deterministic for a
// given seed regardless of GOMAXPROCS.
//
// Two implementations of the round loop and the straggler sweep coexist: the
// map-based reference (reference.go) and the allocation-free fast path
// (roundstate.go, sigbits.go, sweepindex.go). Both produce bit-identical
// clusters and Stats counters for every seed and worker count; the fast path
// is the default, the reference serves as oracle and as the fallback for
// configurations outside the fast path's packing limits.
package cluster

import (
	"context"
	"runtime"
	"sort"
	"time"

	"dnastore/internal/dna"
	"dnastore/internal/edit"
	"dnastore/internal/xrand"
)

// Options configures Cluster. Zero values select the defaults given below.
type Options struct {
	// Mode selects q-gram (default) or w-gram signatures.
	Mode SignatureMode
	// NumGrams is the number of random grams per signature (default 48).
	NumGrams int
	// GramLen is the gram length q (default 4).
	GramLen int
	// AnchorLen is the anchor length k used for partitioning (default 3).
	AnchorLen int
	// PartitionLen is the number of bases l following the anchor that form
	// the partition key (default 6).
	PartitionLen int
	// Rounds is the number of clustering rounds, each with a fresh anchor
	// and fresh grams (default 24).
	Rounds int
	// ThetaLow and ThetaHigh are the signature-distance thresholds: below
	// ThetaLow clusters merge outright; above ThetaHigh they never merge;
	// in between an edit-distance confirmation runs. Both zero (the
	// default) enables automatic configuration (§VI-B).
	ThetaLow, ThetaHigh int
	// EditThreshold is the maximum edit distance between representatives
	// for a confirmed merge. The default (0) configures it automatically
	// from sampled read pairs: midway between the same-strand and
	// different-strand edit-distance modes (§VI-B applied to the
	// confirmation step). Reads of a common origin at error rate p differ
	// by ≈2p·L edits while unrelated randomized strands sit near 0.55·L.
	EditThreshold int
	// MaxPartitionPairs caps the pairwise comparisons within one partition
	// (huge partitions are subsampled). Default 50000.
	MaxPartitionPairs int
	// NoStragglerSweep disables the final pass in which very small
	// clusters are edit-checked against their nearest cluster
	// representatives (by signature distance) without anchor partitioning.
	// The sweep rescues the worst-quality reads that never co-partition
	// with their cluster; disable it to measure the bare multi-round
	// algorithm.
	NoStragglerSweep bool
	// SweepCandidates is the number of nearest representatives the sweep
	// edit-checks per straggler (default 32; banded edit distance keeps
	// each check cheap, and only stragglers pay it).
	SweepCandidates int
	// Reference selects the retained map-based implementation of the round
	// loop and the straggler sweep instead of the allocation-free fast
	// path. Results are bit-identical either way (pinned by the fixed-seed
	// identity tests); the reference is slower and exists as the oracle.
	// Configurations the fast path cannot pack (PartitionLen >
	// maxPackedPartition, GramLen > maxRollingQ) use the reference
	// automatically.
	Reference bool
	// Workers bounds the worker goroutines (default GOMAXPROCS).
	Workers int
	// Seed drives all randomness.
	Seed uint64
}

func (o Options) withDefaults(readLen int) Options {
	if o.NumGrams == 0 {
		o.NumGrams = 48
	}
	if o.GramLen == 0 {
		o.GramLen = 4
	}
	if o.AnchorLen == 0 {
		o.AnchorLen = 3
	}
	if o.PartitionLen == 0 {
		o.PartitionLen = 6
	}
	if o.Rounds == 0 {
		o.Rounds = 24
	}
	// EditThreshold == 0 is resolved from the data inside Cluster (see
	// autoEditThreshold); it cannot be fixed here because it needs reads.
	if o.MaxPartitionPairs == 0 {
		o.MaxPartitionPairs = 50000
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.SweepCandidates == 0 {
		o.SweepCandidates = 32
	}
	return o
}

// useReference reports whether this configuration must (or was asked to) run
// on the map-based reference path. The fast path packs partition keys into a
// uint64 and indexes grams with a 4^q head table, so keys or grams beyond
// those limits fall back.
func (o Options) useReference() bool {
	return o.Reference || o.PartitionLen > maxPackedPartition || o.GramLen > maxRollingQ
}

// Stats reports the work a clustering run performed, split the way the
// paper's Table II reports it.
type Stats struct {
	Rounds            int
	EditDistanceCalls int
	Merges            int
	CheapMerges       int // applied merges decided by signature distance alone (a subset of Merges)
	SignatureTime     time.Duration
	ClusterTime       time.Duration // total minus signature computation
	ThetaLow          int
	ThetaHigh         int
	// Spilled counts reads the streaming demux could not route to any volume
	// (index prefix corrupt, out of range, or read shorter than the prefix).
	// Spilled reads are excluded from clustering but never silently dropped:
	// this counter is the audit trail. Always 0 in batch runs.
	Spilled int
}

// Add accumulates o's counters into s. Time fields sum (busy time across
// shards or volumes); the theta thresholds keep the widest observed range,
// since a merged report cannot represent one threshold per sub-run.
func (s *Stats) Add(o Stats) {
	s.Rounds += o.Rounds
	s.EditDistanceCalls += o.EditDistanceCalls
	s.Merges += o.Merges
	s.CheapMerges += o.CheapMerges
	s.SignatureTime += o.SignatureTime
	s.ClusterTime += o.ClusterTime
	s.Spilled += o.Spilled
	if s.ThetaLow == 0 || (o.ThetaLow != 0 && o.ThetaLow < s.ThetaLow) {
		s.ThetaLow = o.ThetaLow
	}
	if o.ThetaHigh > s.ThetaHigh {
		s.ThetaHigh = o.ThetaHigh
	}
}

// Result is the output of Cluster.
type Result struct {
	// Clusters holds read indices (into the input slice), one slice per
	// cluster, each sorted ascending. Cluster order is deterministic.
	Clusters [][]int
	Stats    Stats
}

// unionFind is a standard weighted union-find over read indices.
type unionFind struct {
	parent []int
	size   []int
}

func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range u.parent {
		u.parent[i] = i
		u.size[i] = 1
	}
	return u
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return false
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
	return true
}

// fnv1a hashes a string (for deterministic per-partition RNG streams).
func fnv1a(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// Cluster groups reads into clusters of (putatively) common origin.
func Cluster(reads []dna.Seq, opts Options) Result {
	//dnalint:allow errflow -- background context never cancels, the only error ClusterContext can return
	res, _ := ClusterContext(context.Background(), reads, opts)
	return res
}

// ClusterContext is Cluster with cooperative cancellation: the round loop,
// the per-partition workers and the straggler sweep all check ctx, and the
// call returns the context's error (with whatever Stats had accumulated)
// when it is cancelled or its deadline passes. Results for a completed call
// are identical to Cluster's.
func ClusterContext(ctx context.Context, reads []dna.Seq, opts Options) (Result, error) {
	if len(reads) == 0 {
		return Result{}, context.Cause(ctx)
	}
	readLen := 0
	for _, r := range reads {
		if len(r) > readLen {
			readLen = len(r)
		}
	}
	o := opts.withDefaults(readLen)
	rng := xrand.New(o.Seed)
	uf := newUnionFind(len(reads))
	var stats Stats
	stats.Rounds = o.Rounds

	// Automatic threshold configuration (§VI-B) unless the user fixed both.
	thetaLow, thetaHigh := o.ThetaLow, o.ThetaHigh
	if thetaLow == 0 && thetaHigh == 0 {
		cfgGrams := newGramSet(xrand.Derive(o.Seed, 0xc0f1), o.Mode, o.NumGrams, o.GramLen)
		thetaLow, thetaHigh, _ = autoThresholds(ctx, reads, cfgGrams, xrand.Derive(o.Seed, 0xc0f2), o.Workers)
	}
	stats.ThetaLow, stats.ThetaHigh = thetaLow, thetaHigh

	// Per-worker edit-distance scratch, reused by calibration, all rounds
	// and the sweep passes. Worker w is the only goroutine touching slot w
	// (see exec.ParallelForW), so no locking is needed.
	editScr := make([]edit.Scratch, o.Workers)
	// One 4-gram presence set per read, built once: the calibration's
	// counting screen reads it, and on the fast path in QGram mode with
	// 4-grams every round and sweep signature is gathered from it.
	useRef := o.useReference()
	gather := !useRef && o.Mode == QGram && o.GramLen == presQ
	var pres []gramPresence
	if gather || o.EditThreshold == 0 {
		pres = presenceSets(ctx, reads, o.Workers)
	}
	if o.EditThreshold == 0 {
		o.EditThreshold = autoEditThreshold(ctx, reads, pres, readLen, xrand.Derive(o.Seed, 0xc0f3), editScr)
	}
	if !gather {
		pres = nil
	}
	var rr *roundRunner
	var sigScr []sigScratch
	if useRef {
		sigScr = make([]sigScratch, o.Workers)
	} else {
		rr = newRoundRunner(ctx, reads, pres, uf, o, thetaLow, thetaHigh, editScr, &stats)
	}

	rootHint := len(reads)
	for round := 0; round < o.Rounds; round++ {
		if err := context.Cause(ctx); err != nil {
			return Result{Stats: stats}, err
		}
		if useRef {
			rootHint = referenceRound(ctx, reads, uf, rng, o, round, thetaLow, thetaHigh, editScr, sigScr, &stats, rootHint)
		} else {
			rr.runRound(rng, round)
		}
	}

	if !o.NoStragglerSweep {
		sweepStart := time.Now() //dnalint:allow determinism -- Stats timing telemetry; never feeds a clustering decision
		// Iterate to a fixpoint (bounded): early passes merge singletons
		// into fragments; as the median cluster size grows, later passes
		// recognize mid-size fragments as stragglers and attach them too.
		// Each pass draws fresh grams so a straggler whose signature ranked
		// poorly under one gram set gets an independent second chance.
		var sweepScr []sweepScratch
		if useRef {
			sweepScr = make([]sweepScratch, o.Workers)
		}
		for pass := 0; pass < 4; pass++ {
			if err := context.Cause(ctx); err != nil {
				stats.ClusterTime += time.Since(sweepStart)
				return Result{Stats: stats}, err
			}
			var merged int
			if useRef {
				merged, rootHint = stragglerSweep(ctx, reads, uf, o, uint64(pass), sweepScr, &stats, rootHint)
			} else {
				merged = rr.runSweepPass(uint64(pass))
			}
			if merged == 0 {
				break
			}
		}
		stats.ClusterTime += time.Since(sweepStart)
	}
	if err := context.Cause(ctx); err != nil {
		return Result{Stats: stats}, err
	}

	// Gather final clusters deterministically: order by smallest member.
	groups := map[int][]int{}
	for i := range reads {
		if i&0xfff == 0 {
			if err := context.Cause(ctx); err != nil {
				return Result{Stats: stats}, err
			}
		}
		root := uf.find(i)
		groups[root] = append(groups[root], i)
	}
	out := make([][]int, 0, len(groups))
	for _, ms := range groups {
		out = append(out, ms) // members already ascend (i loop order)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return Result{Clusters: out, Stats: stats}, nil
}
