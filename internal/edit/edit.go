// Package edit provides sequence-comparison primitives: Levenshtein (edit)
// distance in full and banded/thresholded forms, and Needleman–Wunsch global
// alignment with traceback. Edit distance is the similarity metric used
// throughout DNA storage (§II-E): clustering merges reads that are close in
// edit distance, and its cost is exactly why the clustering module works so
// hard to avoid computing it (§VI-A).
//
// The kernels come in two forms. The package-level functions allocate their
// DP tables per call and are convenient for one-off comparisons. Hot paths —
// clustering confirmation, the straggler sweep, threshold calibration — run
// millions of comparisons, so they thread a Scratch through instead: the
// Scratch owns flat backing arrays that are grown once and reused across
// calls, taking the per-comparison allocation count to zero after warmup.
//
// Levenshtein and Within are the distance entry points, each with one rule.
// Within sends every threshold k ≤ 63, whose Ukkonen band fits one machine
// word, to the band kernel myersBand and larger thresholds to the
// thresholded column kernel myersBlocked; Levenshtein always runs
// myersBlocked (both in myers.go). The classic DPs, LevenshteinDP and
// WithinDP, are the reference implementation and serve only as oracles: the
// parity tests and the FuzzMyersVsDP and FuzzBandVsDP differential fuzzers
// hold both entry points to them on every input.
package edit

import "dnastore/internal/dna"

// Scratch holds reusable DP buffers for the kernels in this package. The
// zero value is ready to use; buffers grow on demand and are never shrunk.
// A Scratch must not be shared between goroutines: parallel callers hold one
// Scratch per worker (see internal/cluster and internal/recon).
//
//dnalint:scratch
type Scratch struct {
	prev []int // DP row (Levenshtein) / band row (Within)
	cur  []int
	dp   []int // full table for Align traceback
	ops  []Op  // traceback output buffer, handed out by Align

	// Bit-parallel state (myers.go): per-base Peq block masks and the
	// VP/VN block vectors of the blocked Myers kernel.
	peq      [dna.NumBases][]uint64
	bvp, bvn []uint64
	// Flat zero-padded per-base match masks of the band kernel.
	bpeq []uint64
}

// rows returns two int slices of length n backed by the scratch, zeroing
// nothing (callers overwrite every cell they read).
func (s *Scratch) rows(n int) (prev, cur []int) {
	if cap(s.prev) < n {
		s.prev = make([]int, n)
		s.cur = make([]int, n)
	}
	return s.prev[:n], s.cur[:n]
}

// table returns an int slice of length n backed by the scratch.
func (s *Scratch) table(n int) []int {
	if cap(s.dp) < n {
		s.dp = make([]int, n)
	}
	return s.dp[:n]
}

// Levenshtein returns the edit distance between a and b: the minimum number
// of single-base insertions, deletions and substitutions transforming one
// into the other.
func Levenshtein(a, b dna.Seq) int {
	var s Scratch
	return s.Levenshtein(a, b)
}

// Levenshtein is the scratch-reusing form of the package-level Levenshtein;
// results are bit-identical. It runs the bit-parallel column kernel, 64 DP
// cells per word-step at every length.
//
//dnalint:hotpath
func (s *Scratch) Levenshtein(a, b dna.Seq) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return len(b)
	}
	d, _ := s.myersBlocked(a, b, -1)
	return d
}

// LevenshteinDP is the reference row-DP edit distance: O(len(a)·len(b))
// time, O(min) space. No production path calls it; the parity tests and
// the differential fuzzer hold Levenshtein to it.
//
//dnalint:hotpath
func (s *Scratch) LevenshteinDP(a, b dna.Seq) int {
	if len(a) < len(b) {
		a, b = b, a
	}
	// b is now the shorter sequence; one row of len(b)+1.
	prev, cur := s.rows(len(b) + 1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		ai := a[i-1]
		for j := 1; j <= len(b); j++ {
			cost := 1
			if ai == b[j-1] {
				cost = 0
			}
			best := prev[j-1] + cost        // substitution / match
			if d := prev[j] + 1; d < best { // deletion from a
				best = d
			}
			if d := cur[j-1] + 1; d < best { // insertion into a
				best = d
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// Within reports whether the edit distance between a and b is at most k, and
// returns the distance when it is. This is what makes edit-distance
// confirmation during clustering affordable: the kernel never does the full
// quadratic work when the answer is "not within".
func Within(a, b dna.Seq, k int) (int, bool) {
	var s Scratch
	return s.Within(a, b, k)
}

// Within is the scratch-reusing form of the package-level Within; results
// are bit-identical. Thresholds up to 63 go to the one-word band kernel and
// larger ones to the thresholded column kernel; both return WithinDP's
// distance and verdict on every input.
//
//dnalint:hotpath
func (s *Scratch) Within(a, b dna.Seq, k int) (int, bool) {
	if k < 0 {
		return 0, false
	}
	la, lb := len(a), len(b)
	if la-lb > k || lb-la > k {
		return 0, false
	}
	if la == 0 {
		return lb, lb <= k
	}
	if lb == 0 {
		return la, la <= k
	}
	// The distance never exceeds max(la, lb), so a larger threshold buys
	// nothing; the clamp keeps hostile k out of the kernels' arithmetic.
	if m := max(la, lb); k > m {
		k = m
	}
	if la > lb {
		a, b = b, a
	}
	if k <= bandMaxK {
		return s.myersBand(a, b, k)
	}
	return s.myersBlocked(a, b, k)
}

// WithinDP is the reference banded (Ukkonen) threshold check, O(k·min(len))
// time. No production path calls it; the parity tests and the differential
// fuzzers hold Within to it.
//
//dnalint:hotpath
func (s *Scratch) WithinDP(a, b dna.Seq, k int) (int, bool) {
	if k < 0 {
		return 0, false
	}
	la, lb := len(a), len(b)
	if la-lb > k || lb-la > k {
		return 0, false
	}
	if la == 0 {
		return lb, lb <= k
	}
	if lb == 0 {
		return la, la <= k
	}
	// The distance can never exceed max(la, lb), so a larger caller-supplied
	// threshold buys nothing — clamp it before sizing the band. Without the
	// clamp a hostile k (fuzzers reach this with k up to 1<<30) would size a
	// 2k+1 band: gigabytes of allocation, or integer overflow in the width.
	if m := max(la, lb); k > m {
		k = m
	}
	// Band of width 2k+1 around the diagonal.
	const inf = 1 << 30
	width := 2*k + 1
	prev, cur := s.rows(width)
	// prev corresponds to row i=0: D(0, j) = j for j in [0..k].
	for d := 0; d < width; d++ {
		j := 0 - k + d
		if j >= 0 && j <= lb {
			prev[d] = j
		} else {
			prev[d] = inf
		}
	}
	for i := 1; i <= la; i++ {
		for d := 0; d < width; d++ {
			j := i - k + d
			if j < 0 || j > lb {
				cur[d] = inf
				continue
			}
			if j == 0 {
				cur[d] = i
				continue
			}
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			best := inf
			if prev[d] != inf { // diagonal: (i-1, j-1) sits at same offset d
				best = prev[d] + cost
			}
			if d+1 < width && prev[d+1] != inf { // (i-1, j): deletion
				if v := prev[d+1] + 1; v < best {
					best = v
				}
			}
			if d > 0 && cur[d-1] != inf { // (i, j-1): insertion
				if v := cur[d-1] + 1; v < best {
					best = v
				}
			}
			cur[d] = best
		}
		// Early exit: if the whole band exceeds k the answer cannot be <= k.
		minRow := inf
		for _, v := range cur {
			if v < minRow {
				minRow = v
			}
		}
		if minRow > k {
			return 0, false
		}
		prev, cur = cur, prev
	}
	// Final cell (la, lb) sits at offset lb - la + k.
	d := lb - la + k
	if d < 0 || d >= width || prev[d] > k {
		return 0, false
	}
	return prev[d], true
}

// Op is a single alignment operation.
type Op byte

// Alignment operations emitted by Align.
const (
	Match Op = iota // bases equal
	Sub             // substitution
	Ins             // base present in b but not a
	Del             // base present in a but not b
)

// String returns a one-letter code: =, X, I, D.
func (o Op) String() string {
	switch o {
	case Match:
		return "="
	case Sub:
		return "X"
	case Ins:
		return "I"
	case Del:
		return "D"
	}
	return "?"
}

// Align computes a Needleman–Wunsch global alignment of a and b under unit
// edit costs (match 0, substitution/indel 1) and returns the operation
// sequence along with the total cost. The cost equals Levenshtein(a, b).
// Ties are broken to prefer Match/Sub over indels, which concentrates gaps
// and matches how wetlab error profiles are usually tabulated.
func Align(a, b dna.Seq) ([]Op, int) {
	var s Scratch
	return s.Align(a, b)
}

// Align is the scratch-reusing form of the package-level Align; results are
// bit-identical. The returned op slice is backed by the scratch and is only
// valid until the next Align call on the same Scratch; callers that need to
// retain it across calls must copy it.
func (s *Scratch) Align(a, b dna.Seq) ([]Op, int) {
	la, lb := len(a), len(b)
	// Full DP table for traceback; clustering only aligns short reads so the
	// quadratic memory is acceptable.
	rows := la + 1
	cols := lb + 1
	dp := s.table(rows * cols)
	for j := 0; j < cols; j++ {
		dp[j] = j
	}
	for i := 1; i < rows; i++ {
		dp[i*cols] = i
		ai := a[i-1]
		for j := 1; j < cols; j++ {
			cost := 1
			if ai == b[j-1] {
				cost = 0
			}
			best := dp[(i-1)*cols+j-1] + cost
			if v := dp[(i-1)*cols+j] + 1; v < best {
				best = v
			}
			if v := dp[i*cols+j-1] + 1; v < best {
				best = v
			}
			dp[i*cols+j] = best
		}
	}
	// Traceback, preferring diagonal moves on ties.
	if cap(s.ops) < la+lb {
		s.ops = make([]Op, 0, la+lb)
	}
	ops := s.ops[:0]
	i, j := la, lb
	for i > 0 || j > 0 {
		switch {
		case i > 0 && j > 0:
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			if dp[i*cols+j] == dp[(i-1)*cols+j-1]+cost {
				if cost == 0 {
					ops = append(ops, Match)
				} else {
					ops = append(ops, Sub)
				}
				i--
				j--
				continue
			}
			if dp[i*cols+j] == dp[(i-1)*cols+j]+1 {
				ops = append(ops, Del)
				i--
				continue
			}
			ops = append(ops, Ins)
			j--
		case i > 0:
			ops = append(ops, Del)
			i--
		default:
			ops = append(ops, Ins)
			j--
		}
	}
	// Reverse into forward order.
	for l, r := 0, len(ops)-1; l < r; l, r = l+1, r-1 {
		ops[l], ops[r] = ops[r], ops[l]
	}
	s.ops = ops[:0]
	return ops, dp[la*cols+lb]
}

// Cost returns the total edit cost of an op sequence (matches are free).
func Cost(ops []Op) int {
	c := 0
	for _, o := range ops {
		if o != Match {
			c++
		}
	}
	return c
}
