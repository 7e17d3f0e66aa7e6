// Bit-packed signature kernels, the per-read gram presence sets and the
// chain-indexed signature scan — the clustering fast path's counterparts of
// signature.go's reference implementations.
//
// Every read gets one 256-bit presence set of its distinct 4-grams
// (gramPresence), built once per clustering call in parallel and shared by
// the edit-threshold calibration's counting screen, the round signatures and
// the straggler sweep. In QGram mode with the default gram length 4 a
// signature is a gather of the gram set's codes from that set (qsigGather)
// instead of a rescan of the read.
//
// For other gram lengths and for w-grams, gramIndex maps a packed q-gram
// code to the chain of gram-set indices holding that code, so one
// rolling-hash pass over a read fills its whole signature without the
// reference path's 4^q first-occurrence table (and without its
// per-signature allocation). The q-gram presence signature is kept
// bit-packed in []uint64 words, making the Hamming distance an XOR+popcount
// sweep (hammingPacked) — the same move the Myers kernels made for edit
// distance. The w-gram L1 distance gets a running-sum early exit against
// thetaHigh (wgramDistanceWithin): exact integer arithmetic proves the
// final normalized distance cannot come back under the threshold and bails.
//
// Every kernel is held bit-identical to its []int32 reference by
// FuzzSigDistance and the fixed-seed identity tests.
package cluster

import (
	"context"
	"math/bits"

	"dnastore/internal/dna"
	"dnastore/internal/exec"
)

// sigWords is the []uint64 word count of a packed presence signature over
// count grams.
func sigWords(count int) int {
	return (count + 63) / 64
}

// presQ is the gram length of the per-read presence sets. 4 keeps the code
// space at 256, so a set is four uint64 words; it is also the default
// Options.GramLen, which is what lets round and sweep signatures be gathered
// from the sets.
const presQ = 4

// presWords is the uint64 word count of a presQ-gram presence set.
const presWords = (1 << (2 * presQ)) / 64

// gramPresence is the set of distinct presQ-gram codes occurring in a read,
// one bit per packed code (first base most significant, as packGram).
type gramPresence [presWords]uint64

// presenceOf fills pb with the read's distinct presQ-gram presence set.
// Reads shorter than presQ get the empty set.
func presenceOf(read dna.Seq, pb *gramPresence) {
	for i := range pb {
		pb[i] = 0
	}
	if len(read) < presQ {
		return
	}
	const mask = uint32(1<<(2*presQ) - 1)
	var code uint32
	for i, b := range read {
		code = (code<<2 | uint32(b&3)) & mask
		if i >= presQ-1 {
			pb[code>>6] |= 1 << (code & 63)
		}
	}
}

// count is the number of distinct grams in the set.
func (pb *gramPresence) count() int {
	n := 0
	for _, w := range pb {
		n += bits.OnesCount64(w)
	}
	return n
}

// shared is the number of distinct grams the two sets have in common.
func (pb *gramPresence) shared(o *gramPresence) int {
	n := 0
	for w := range pb {
		n += bits.OnesCount64(pb[w] & o[w])
	}
	return n
}

// presenceSets builds every read's presence set, in parallel. A cancelled
// call leaves later sets empty; callers re-check ctx before any result of
// theirs is used.
func presenceSets(ctx context.Context, reads []dna.Seq, workers int) []gramPresence {
	pres := make([]gramPresence, len(reads))
	exec.ParallelForW(ctx, workers, len(reads), func(_, i int) {
		presenceOf(reads[i], &pres[i])
	})
	return pres
}

// qsigGather fills dst (len == sigWords(len(codes))) with a read's
// bit-packed q-gram presence signature over the presQ-gram codes, read from
// the read's presence set p: bit g is set iff code g occurs in the read.
// For a gram set of length presQ it equals gramIndex.qsigBitsInto on the
// same read, short reads included (pinned by FuzzSigDistance).
//
//dnalint:hotpath
func qsigGather(codes []uint32, p *gramPresence, dst []uint64) {
	for w := range dst {
		lo := w * 64
		var word uint64
		for g, c := range codes[lo:min(lo+64, len(codes))] {
			word |= (p[c>>6] >> (c & 63) & 1) << uint(g)
		}
		dst[w] = word
	}
}

// packQSig packs a reference q-gram presence signature (0/1 entries) into
// dst, gram i at word i/64 bit i%64 — the layout qsigBitsInto produces
// directly. Used by the differential fuzzer and tests.
func packQSig(sig []int32, dst []uint64) {
	for w := range dst {
		dst[w] = 0
	}
	for i, v := range sig {
		if v != 0 {
			dst[i>>6] |= 1 << (uint(i) & 63)
		}
	}
}

// hammingPacked is the packed-signature Hamming distance: identical to
// gramSet.distance on the QGram []int32 signatures the words were packed
// from.
//
//dnalint:hotpath
func hammingPacked(a, b []uint64) int {
	d := 0
	for i := range a {
		d += bits.OnesCount64(a[i] ^ b[i])
	}
	return d
}

// wgramDistanceWithin is gramSet.distance for WGram signatures with a
// running-sum early exit against thetaHigh. Contract: when the reference
// distance is <= thetaHigh the exact reference value is returned; otherwise
// some value > thetaHigh is returned (callers only compare against the
// threshold band, so the two are indistinguishable).
//
// The exit is exact integer arithmetic, no estimate: with running unscaled
// drift d over o co-present grams and r grams left to scan, every completion
// has final drift >= d and final overlap <= o+r, so the normalized distance
// floor(D*wgramScale/overlap) is at least floor(d*wgramScale/(o+r)) — once
// d*wgramScale >= (thetaHigh+1)*(o+r) no completion can come back under the
// threshold. If even o+r is below wgramMinOverlap the result is exactly
// WGramFar. Both shortcuts require thetaHigh < WGramFar (otherwise WGramFar
// itself is inside the merge band and the full reference loop runs).
//
//dnalint:hotpath
func wgramDistanceWithin(a, b []int32, thetaHigh int) int {
	n := len(a)
	d, overlap := 0, 0
	if thetaHigh >= WGramFar {
		// Degenerate threshold (user-fixed): WGramFar no longer exceeds the
		// band, so the shortcuts above are unsound. Reference loop, verbatim.
		for i := 0; i < n; i++ {
			if a[i] == wgramAbsent || b[i] == wgramAbsent {
				continue
			}
			overlap++
			v := int(a[i] - b[i])
			if v < 0 {
				v = -v
			}
			if v > wgramCap {
				v = wgramCap
			}
			d += v
		}
		if overlap < wgramMinOverlap {
			return WGramFar
		}
		return d * wgramScale / overlap
	}
	lim := thetaHigh + 1
	for i := 0; i < n; i++ {
		av, bv := a[i], b[i]
		if av != wgramAbsent && bv != wgramAbsent {
			overlap++
			v := int(av - bv)
			if v < 0 {
				v = -v
			}
			if v > wgramCap {
				v = wgramCap
			}
			d += v
		}
		reach := overlap + (n - 1 - i)
		if reach < wgramMinOverlap {
			return WGramFar
		}
		if d*wgramScale >= lim*reach {
			return lim
		}
	}
	if overlap < wgramMinOverlap {
		return WGramFar // unreachable for n > 0 (the loop exits first); n == 0
	}
	return d * wgramScale / overlap
}

// gramIndex inverts a gram set: packed code -> chain of gram indices holding
// that code. With it, one rolling-hash pass over a read visits exactly the
// signature entries the read touches, replacing the reference path's
// 4^q-entry first-occurrence table per signature with an O(len(read)) scan.
// Chains are read-only after build, so parallel workers share one index.
// Requires q <= maxRollingQ (the head table is sized 4^q).
type gramIndex struct {
	head []int32 // 4^q entries: first gram index holding the code, -1 none
	next []int32 // per-gram chain links
}

// build rebuilds the index for gs in place.
func (gi *gramIndex) build(gs gramSet) {
	size := 1 << (2 * uint(gs.q))
	if cap(gi.head) < size {
		gi.head = make([]int32, size)
	}
	gi.head = gi.head[:size]
	for i := range gi.head {
		gi.head[i] = -1
	}
	if cap(gi.next) < len(gs.codes) {
		gi.next = make([]int32, len(gs.codes))
	}
	gi.next = gi.next[:len(gs.codes)]
	for i := len(gs.codes) - 1; i >= 0; i-- {
		c := gs.codes[i]
		gi.next[i] = gi.head[c]
		gi.head[c] = int32(i)
	}
}

// signatureInto fills dst (len == len(gs.grams)) with the read's reference
// []int32 signature — bit-identical to gs.signatureScratch — in one
// rolling-hash pass over the read.
//
//dnalint:hotpath
func (gi *gramIndex) signatureInto(gs gramSet, read dna.Seq, dst []int32) {
	if gs.mode == QGram {
		for i := range dst {
			dst[i] = 0
		}
	} else {
		for i := range dst {
			dst[i] = wgramAbsent
		}
	}
	if len(read) < gs.q {
		return
	}
	mask := uint32(1<<(2*uint(gs.q)) - 1)
	var code uint32
	head := gi.head
	for i, b := range read {
		code = (code<<2 | uint32(b&3)) & mask
		if i < gs.q-1 {
			continue
		}
		for g := head[code]; g >= 0; g = gi.next[g] {
			if gs.mode == QGram {
				dst[g] = 1
			} else if dst[g] == wgramAbsent {
				dst[g] = int32(i - gs.q + 1)
			}
		}
	}
}

// qsigBitsInto fills dst (len == sigWords(len(gs.grams))) with the read's
// bit-packed q-gram presence signature: bit g set iff the reference
// signature's entry g is 1.
//
//dnalint:hotpath
func (gi *gramIndex) qsigBitsInto(gs gramSet, read dna.Seq, dst []uint64) {
	for w := range dst {
		dst[w] = 0
	}
	if len(read) < gs.q {
		return
	}
	mask := uint32(1<<(2*uint(gs.q)) - 1)
	var code uint32
	head := gi.head
	for i, b := range read {
		code = (code<<2 | uint32(b&3)) & mask
		if i < gs.q-1 {
			continue
		}
		for g := head[code]; g >= 0; g = gi.next[g] {
			dst[g>>6] |= 1 << (uint(g) & 63)
		}
	}
}
