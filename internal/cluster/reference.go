// Reference implementations of the clustering round and the straggler sweep.
//
// These are the original map-based loops, retained verbatim when the fast
// path (roundstate.go, sweepindex.go) replaced them on the hot path: they
// stay reachable through Options.Reference and serve as the oracle for the
// fixed-seed identity tests, and they remain the only implementation for
// configurations outside the fast path's packing limits (PartitionLen >
// maxPackedPartition, GramLen > maxRollingQ). Any change here changes the
// definition of "correct" for the fast path — the identity tests compare
// the two bit for bit.
package cluster

import (
	"context"
	"sort"
	"time"

	"dnastore/internal/dna"
	"dnastore/internal/edit"
	"dnastore/internal/exec"
	"dnastore/internal/xrand"
)

// referenceRound runs one clustering round with the map-based reference
// machinery, mutating uf and stats. rootHint is the previous round's cluster
// count (or len(reads) for the first round) and pre-sizes this round's root
// collection; the return value is this round's cluster count, the next
// round's hint.
func referenceRound(ctx context.Context, reads []dna.Seq, uf *unionFind, rng *xrand.RNG, o Options, round, thetaLow, thetaHigh int, editScr []edit.Scratch, sigScr []sigScratch, stats *Stats, rootHint int) int {
	// Fresh anchor and grams every round.
	anchor := dna.Random(rng, o.AnchorLen)
	grams := newGramSet(xrand.Derive(o.Seed, uint64(round)+1), o.Mode, o.NumGrams, o.GramLen)

	// One representative per current cluster, chosen deterministically:
	// roots are visited in ascending order.
	members := make(map[int][]int, rootHint)
	roots := make([]int, 0, rootHint)
	//dnalint:allow ctxflow -- reference oracle: the loop shape is frozen for bit-identity with the fast path; the caller polls ctx between rounds
	for i := range reads {
		root := uf.find(i)
		if _, seen := members[root]; !seen {
			roots = append(roots, root)
		}
		members[root] = append(members[root], i)
	}
	sort.Ints(roots)
	reps := make(map[int]int, len(roots)) // root -> representative read
	//dnalint:allow ctxflow -- reference oracle: rng consumption per root is part of the frozen decision sequence and must not early-exit
	for _, root := range roots {
		ms := members[root]
		reps[root] = ms[rng.Intn(len(ms))]
	}

	// Partition clusters by the l bases following the anchor in the
	// representative; representatives lacking the anchor are hashed by
	// their prefix instead so they still participate.
	partitions := map[string][]int{} // key -> roots
	//dnalint:allow ctxflow -- reference oracle: O(roots) key derivation, frozen for bit-identity with the fast path
	for _, root := range roots {
		r := reads[reps[root]]
		var key string
		if pos := r.Index(anchor); pos >= 0 && pos+o.AnchorLen+o.PartitionLen <= len(r) {
			key = "a:" + r[pos+o.AnchorLen:pos+o.AnchorLen+o.PartitionLen].String()
		} else {
			n := o.PartitionLen
			if n > len(r) {
				n = len(r)
			}
			key = "p:" + r[:n].String()
		}
		partitions[key] = append(partitions[key], root)
	}

	// Signatures for all representatives, in parallel.
	sigStart := time.Now() //dnalint:allow determinism -- Stats timing telemetry; never feeds a clustering decision
	sigList := make([][]int32, len(roots))
	exec.ParallelForW(ctx, o.Workers, len(roots), func(w, i int) {
		sigList[i] = grams.signatureScratch(reads[reps[roots[i]]], &sigScr[w])
	})
	sigs := make(map[int][]int32, len(roots))
	for i, root := range roots {
		sigs[root] = sigList[i]
	}
	stats.SignatureTime += time.Since(sigStart)

	// Phase 1 (parallel, deterministic): each partition independently
	// proposes merges. Edit-distance decisions do not consult the
	// union-find, so the proposal set is a pure function of the seed.
	partStart := time.Now() //dnalint:allow determinism -- Stats timing telemetry; never feeds a clustering decision
	keys := make([]string, 0, len(partitions))
	for k := range partitions {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type proposal struct {
		a, b  int
		cheap bool // decided by signature distance alone
	}
	proposalsPer := make([][]proposal, len(keys))
	editCalls := make([]int, len(keys))
	exec.ParallelForW(ctx, o.Workers, len(keys), func(w, ki int) {
		key := keys[ki]
		group := partitions[key]
		if len(group) < 2 {
			return
		}
		prng := xrand.Derive(o.Seed, fnv1a(key)^uint64(round))
		pairs := len(group) * (len(group) - 1) / 2
		stride := 1
		if pairs > o.MaxPartitionPairs {
			stride = pairs/o.MaxPartitionPairs + 1
		}
		for ai := 0; ai < len(group); ai++ {
			for bi := ai + 1; bi < len(group); bi++ {
				if stride > 1 && prng.Intn(stride) != 0 {
					continue
				}
				a, b := group[ai], group[bi]
				d := grams.distance(sigs[a], sigs[b])
				if d > thetaHigh {
					continue
				}
				if d <= thetaLow {
					proposalsPer[ki] = append(proposalsPer[ki], proposal{a, b, true})
					continue
				}
				editCalls[ki]++
				if _, ok := editScr[w].Within(reads[reps[a]], reads[reps[b]], o.EditThreshold); ok {
					proposalsPer[ki] = append(proposalsPer[ki], proposal{a, b, false})
				}
			}
		}
	})
	// Phase 2 (serial): apply proposals. The final connected components
	// are independent of application order.
	//dnalint:allow ctxflow -- serial apply of already-computed merges: O(proposals) pointer swaps, no blocking calls
	for ki := range proposalsPer {
		stats.EditDistanceCalls += editCalls[ki]
		for _, p := range proposalsPer[ki] {
			if uf.union(p.a, p.b) {
				stats.Merges++
				if p.cheap {
					stats.CheapMerges++
				}
			}
		}
	}
	stats.ClusterTime += time.Since(partStart)
	return len(roots)
}

// sweepScratch is the per-worker reusable state of the straggler sweep: the
// edit-distance DP scratch, the signature first-occurrence table, the
// averaged-signature accumulators and the candidate-ranking buffer. Slot w
// is touched only by worker w (exec.ParallelForW), never shared.
//
//dnalint:scratch
type sweepScratch struct {
	edit  edit.Scratch
	sig   sigScratch
	sum   []float32
	count []int32
	cands []sweepCand
}

// sweepCand is a candidate cluster for a straggler merge, ranked by distance
// to the cluster's averaged signature.
type sweepCand struct {
	j int
	d float32
}

// sweepSigReads bounds how many members contribute to a cluster's averaged
// sweep signature: the mean denoises individual read errors, and a handful
// of members is enough for the averaging to converge.
const sweepSigReads = 6

// stragglerSweep merges small clusters into their nearest cluster when an
// edit-distance check confirms common origin. It returns the number of
// merges applied and the cluster count it observed (the caller's rootHint
// for the next pass). Edit-distance calls are accumulated into stats. scr
// holds one scratch per worker (len >= o.Workers), reused across passes.
func stragglerSweep(ctx context.Context, reads []dna.Seq, uf *unionFind, o Options, pass uint64, scr []sweepScratch, stats *Stats, rootHint int) (applied, nroots int) {
	members := make(map[int][]int, rootHint)
	roots := make([]int, 0, rootHint)
	for i := range reads {
		if i&0xfff == 0 && ctx.Err() != nil {
			return 0, rootHint // no merges: the caller's fixpoint loop stops and re-checks ctx
		}
		root := uf.find(i)
		if _, seen := members[root]; !seen {
			roots = append(roots, root)
		}
		members[root] = append(members[root], i)
	}
	sort.Ints(roots)
	// A straggler is any cluster clearly smaller than typical: at most half
	// the median cluster size (and size-2 clusters always qualify).
	sizes := make([]int, len(roots))
	for i, root := range roots {
		sizes[i] = len(members[root])
	}
	sorted := append([]int(nil), sizes...)
	sort.Ints(sorted)
	small := sorted[len(sorted)/2] * 2 / 3
	if small < 2 {
		small = 2
	}
	if sorted[0] > small {
		return 0, len(roots) // no stragglers: no edit call, no merge
	}
	// The sweep ranks every cluster, so its signature needs to be far more
	// discriminative than the per-round ones: use triple the grams (the
	// rolling-hash signature makes the extra grams nearly free).
	grams := newGramSet(xrand.Derive(o.Seed, 0x5feeb+pass), o.Mode, 3*o.NumGrams, o.GramLen)
	reps := make([]int, len(roots))
	for i, root := range roots {
		reps[i] = members[root][0]
	}
	// Candidate clusters are summarized by an *averaged* signature over up
	// to sweepSigReads members: the mean denoises individual read errors,
	// which is what makes the nearest-candidate ranking reliable even at
	// error rates where any single representative's signature is mangled.
	meanSigs := make([][]float32, len(roots))
	exec.ParallelForW(ctx, o.Workers, len(roots), func(w, i int) {
		sc := &scr[w]
		ms := members[roots[i]]
		n := len(ms)
		if n > sweepSigReads {
			n = sweepSigReads
		}
		// Accumulators come from the worker's scratch and must be re-zeroed
		// (a fresh make would zero them too; this just skips the allocation).
		if cap(sc.sum) < len(grams.grams) {
			sc.sum = make([]float32, len(grams.grams))
			sc.count = make([]int32, len(grams.grams))
		}
		sum := sc.sum[:len(grams.grams)]
		count := sc.count[:len(grams.grams)]
		for g := range sum {
			sum[g] = 0
			count[g] = 0
		}
		for _, m := range ms[:n] {
			sig := grams.signatureScratch(reads[m], &sc.sig)
			for g, v := range sig {
				if grams.mode == WGram {
					if v == wgramAbsent {
						continue
					}
					sum[g] += float32(v)
					count[g]++
				} else {
					sum[g] += float32(v)
					count[g]++
				}
			}
		}
		mean := make([]float32, len(grams.grams))
		for g := range mean {
			switch {
			case grams.mode == WGram && int(count[g])*2 <= n:
				mean[g] = -1 // absent in most members
			case count[g] == 0:
				mean[g] = -1
			default:
				mean[g] = sum[g] / float32(count[g])
			}
		}
		meanSigs[i] = mean
	})

	type merge struct{ a, b int }
	merges := make([][]merge, len(roots))
	editCalls := make([]int, len(roots))
	exec.ParallelForW(ctx, o.Workers, len(roots), func(w, i int) {
		if sizes[i] > small {
			return
		}
		sc := &scr[w]
		sig := grams.signatureScratch(reads[reps[i]], &sc.sig)
		// Rank the other clusters by distance to their averaged signature
		// and edit-check the closest few.
		cands := sc.cands[:0]
		for j := range roots {
			if j == i {
				continue
			}
			cands = append(cands, sweepCand{j, grams.meanDistance(sig, meanSigs[j])})
		}
		sc.cands = cands[:0]
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].d != cands[b].d {
				return cands[a].d < cands[b].d
			}
			return cands[a].j < cands[b].j
		})
		// With many clusters the nearest-k ranking gets noisier; scale the
		// edit-checked candidate count with the cluster population.
		limit := o.SweepCandidates
		if scaled := len(roots) / 20; scaled > limit {
			limit = scaled
		}
		if limit > len(cands) {
			limit = len(cands)
		}
		bestJ, bestD := -1, o.EditThreshold+1
		for _, c := range cands[:limit] {
			editCalls[i]++
			if d, ok := sc.edit.Within(reads[reps[i]], reads[reps[c.j]], o.EditThreshold); ok && d < bestD {
				bestJ, bestD = c.j, d
			}
		}
		if bestJ >= 0 {
			merges[i] = append(merges[i], merge{roots[i], roots[bestJ]})
		}
	})
	//dnalint:allow ctxflow -- serial apply of already-computed merges: O(clusters) pointer swaps, no blocking calls
	for i := range merges {
		stats.EditDistanceCalls += editCalls[i]
		for _, m := range merges[i] {
			if uf.union(m.a, m.b) {
				stats.Merges++
				applied++
			}
		}
	}
	return applied, len(roots)
}
