// Bit-parallel edit-distance kernels (Myers 1999, in Hyyrö's global-distance
// formulation). The classic DP computes one cell per step; Myers' recurrence
// encodes a whole DP column as two bit-vectors of vertical deltas (VP bit i
// set when D(i+1,j)−D(i,j) = +1, VN when −1) and advances all 64 cells of a
// machine word with a constant number of word operations. Over the 4-letter
// DNA alphabet the only per-pattern state is a tiny Peq table: one bitmask
// per base marking the pattern positions holding that base.
//
// Four kernels share the recurrence. Three compute whole columns: for
// patterns of at most 64 bases the column fits in one word (myers64);
// patterns of 65–128 bases get a fully unrolled two-word specialization
// whose Peq table and block vectors live in registers and on the stack
// (myers128); anything longer is split into ⌈m/64⌉ block words with the ±1
// horizontal delta carried from block to block Hyyrö-style (myersBlocked),
// the block vectors living in the Scratch so steady-state calls allocate
// nothing. These track the running bottom-row score D(m,j), and the
// thresholded form bails as soon as score − (columns remaining) exceeds k,
// which is sound because the bottom row changes by at most ±1 per column.
//
// The fourth (myersBand) computes only the Ukkonen band of a threshold
// check: the at most k+1 diagonals an alignment of cost ≤ k can visit, held
// in one word that slides down one row per text column, for any pattern
// length. It tracks the score on the goal diagonal, which never decreases,
// and bails as soon as it exceeds k — at 6 % error on 128-nt reads about
// half-way through the text for unrelated pairs, where the bottom-row bound
// waits until three quarters.
//
// Dispatch (Within): every threshold check with k ≤ 63 runs the band
// kernel; larger thresholds use the banded DP or the column kernels (see
// bpWithinProfitable). The DP kernels in edit.go remain the reference
// implementation; every kernel returns identical distances and verdicts,
// held to the DP by the parity tests and the FuzzMyersVsDP and FuzzBandVsDP
// differential fuzzers.
package edit

import "dnastore/internal/dna"

// wordBits is the DP-cells-per-word width of the bit-parallel kernels.
const wordBits = 64

// bpMinPattern is the pattern length below which the dispatcher keeps the
// banded DP for Within: at a handful of rows the band is already only a few
// dozen cells and the Peq/bit bookkeeping has nothing left to amortize.
const bpMinPattern = 8

// bpWithinProfitable decides Within's kernel: the banded DP touches
// ~(2k+1)·max(la,lb) cells while the bit-parallel kernel always pays
// ⌈min/64⌉·max word-steps, so the band must be a few cells per word-step
// wide before bit-parallelism wins. The verdict and distance are identical
// either way; only the speed differs.
func bpWithinProfitable(la, lb, k int) bool {
	m := la
	if lb < m {
		m = lb
	}
	if m < bpMinPattern {
		return false
	}
	blocks := (m + wordBits - 1) / wordBits
	return 2*k+1 >= 3*blocks
}

// LevenshteinBP is the bit-parallel edit distance: identical to
// Levenshtein's DP result, at O(⌈min/64⌉·max) word operations.
func LevenshteinBP(a, b dna.Seq) int {
	var s Scratch
	return s.LevenshteinBP(a, b)
}

// LevenshteinBP is the scratch-reusing form of the package-level
// LevenshteinBP; results are identical to LevenshteinDP.
//
//dnalint:hotpath
func (s *Scratch) LevenshteinBP(a, b dna.Seq) int {
	p, t := a, b
	if len(p) > len(t) {
		p, t = t, p
	}
	if len(p) == 0 {
		return len(t)
	}
	if len(p) <= wordBits {
		d, _ := myers64(p, t, -1)
		return d
	}
	if len(p) <= 2*wordBits {
		d, _ := myers128(p, t, -1)
		return d
	}
	d, _ := s.myersBlocked(p, t, -1)
	return d
}

// WithinBP reports whether the edit distance between a and b is at most k,
// returning the distance when it is — the bit-parallel counterpart of
// Within, with identical results on every input. It tracks the running
// bottom-row score and stops as soon as the distance provably exceeds k.
func WithinBP(a, b dna.Seq, k int) (int, bool) {
	var s Scratch
	return s.WithinBP(a, b, k)
}

// WithinBP is the scratch-reusing form of the package-level WithinBP;
// results are identical to WithinDP.
//
//dnalint:hotpath
func (s *Scratch) WithinBP(a, b dna.Seq, k int) (int, bool) {
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
	// The distance never exceeds max(la, lb); clamp hostile thresholds the
	// same way WithinDP does (no bit-parallel state depends on k, but the
	// clamp keeps the early-exit arithmetic in comfortable integer range).
	if m := max(la, lb); k > m {
		k = m
	}
	p, t := a, b
	if len(p) > len(t) {
		p, t = t, p
	}
	if len(p) <= wordBits {
		return myers64(p, t, k)
	}
	if len(p) <= 2*wordBits {
		return myers128(p, t, k)
	}
	return s.myersBlocked(p, t, k)
}

// myers64 runs the single-word recurrence: pattern length m ≤ 64, text of
// any length. k < 0 disables the threshold (the distance is always
// returned with ok=true); k ≥ 0 returns (0, false) as soon as the distance
// provably exceeds k. The Peq table lives on the stack — no allocation.
//
//dnalint:hotpath
func myers64(pattern, text dna.Seq, k int) (int, bool) {
	var peq [dna.NumBases]uint64
	for i, c := range pattern {
		peq[c&3] |= 1 << uint(i)
	}
	m := len(pattern)
	score := m
	top := uint(m - 1) // bit of the pattern's last row
	vp := ^uint64(0)   // column 0: every vertical delta is +1 (D(i,0)=i)
	vn := uint64(0)
	n := len(text)
	for j := 0; j < n; j++ {
		eq := peq[text[j]&3]
		// D0 marks rows whose DP cell equals its upper-left neighbour.
		d0 := (((eq & vp) + vp) ^ vp) | eq | vn
		hp := vn | ^(d0 | vp)
		hn := d0 & vp
		score += int((hp >> top) & 1)
		score -= int((hn >> top) & 1)
		// Shift the horizontal deltas down one row; the +1 shifted into HP
		// is the top boundary D(0,j) − D(0,j−1) = +1 of the global DP.
		hp = hp<<1 | 1
		hn = hn << 1
		vp = hn | ^(d0 | hp)
		vn = d0 & hp
		// The bottom row changes by at most ±1 per column, so the final
		// distance is at least score − (columns remaining).
		if k >= 0 && score-(n-j-1) > k {
			return 0, false
		}
	}
	if k >= 0 && score > k {
		return 0, false
	}
	return score, true
}

// myers128 is the two-word specialization of the blocked recurrence for
// patterns of 65–128 bases — the band sequencing-length reads live in. It is
// myersBlocked with blocks fixed at two and the loop unrolled: the Peq table
// is two stack arrays, the VP/VN block vectors are four register variables,
// and the inter-block ±1 horizontal carry collapses to two bit pulls (HP and
// HN are disjoint, so at most one of the carries is set — exactly the
// hin ∈ {−1, 0, +1} of the general kernel). Threshold semantics and results
// are identical to myersBlocked; no Scratch, no allocation.
//
//dnalint:hotpath
func myers128(pattern, text dna.Seq, k int) (int, bool) {
	var peqLo, peqHi [dna.NumBases]uint64
	for i, c := range pattern {
		if i < wordBits {
			peqLo[c&3] |= 1 << uint(i)
		} else {
			peqHi[c&3] |= 1 << uint(i-wordBits)
		}
	}
	m := len(pattern)
	score := m
	top := uint(m - 1 - wordBits) // last-row bit within the high word
	vp0, vp1 := ^uint64(0), ^uint64(0)
	vn0, vn1 := uint64(0), uint64(0)
	n := len(text)
	for j := 0; j < n; j++ {
		c := text[j] & 3
		// Low word: the top boundary D(0,j) − D(0,j−1) = +1 is constant.
		eq := peqLo[c]
		d0 := (((eq & vp0) + vp0) ^ vp0) | eq | vn0
		hp := vn0 | ^(d0 | vp0)
		hn := d0 & vp0
		carryPos := hp >> 63
		carryNeg := hn >> 63
		hp = hp<<1 | 1
		hn = hn << 1
		vp0 = hn | ^(d0 | hp)
		vn0 = d0 & hp
		// High word: carry the boundary delta in, Hyyrö-style. A −1 carried
		// in lets the first cell take the diagonal, like a matching base.
		eq = peqHi[c] | carryNeg
		d0 = (((eq & vp1) + vp1) ^ vp1) | eq | vn1
		hp = vn1 | ^(d0 | vp1)
		hn = d0 & vp1
		score += int((hp >> top) & 1)
		score -= int((hn >> top) & 1)
		hp = hp<<1 | carryPos
		hn = hn<<1 | carryNeg
		vp1 = hn | ^(d0 | hp)
		vn1 = d0 & hp
		if k >= 0 && score-(n-j-1) > k {
			return 0, false
		}
	}
	if k >= 0 && score > k {
		return 0, false
	}
	return score, true
}

// blockVectors returns VP/VN block slices of length blocks backed by the
// scratch, initialized to the column-0 state (all vertical deltas +1).
func (s *Scratch) blockVectors(blocks int) (vp, vn []uint64) {
	if cap(s.bvp) < blocks {
		s.bvp = make([]uint64, blocks)
		s.bvn = make([]uint64, blocks)
	}
	vp, vn = s.bvp[:blocks], s.bvn[:blocks]
	for b := range vp {
		vp[b] = ^uint64(0)
		vn[b] = 0
	}
	return vp, vn
}

// peqBlocks fills the scratch's per-base Peq block table for the pattern.
// Bits at and above the pattern length stay zero; the garbage the recurrence
// accumulates there never propagates downward (word ops only carry upward),
// so the cells up to row m remain exact.
func (s *Scratch) peqBlocks(pattern dna.Seq, blocks int) {
	for c := range s.peq {
		if cap(s.peq[c]) < blocks {
			s.peq[c] = make([]uint64, blocks)
		}
		pe := s.peq[c][:blocks]
		for i := range pe {
			pe[i] = 0
		}
		s.peq[c] = pe
	}
	for i, c := range pattern {
		s.peq[c&3][i/wordBits] |= 1 << (uint(i) % wordBits)
	}
}

// myersBlocked is the blocked (Hyyrö) variant for patterns longer than one
// word: the column is split into ⌈m/64⌉ block words and the ±1 horizontal
// delta at each block boundary is carried into the next block's recurrence.
// Threshold semantics match myers64. All state lives in the Scratch.
//
//dnalint:hotpath
func (s *Scratch) myersBlocked(pattern, text dna.Seq, k int) (int, bool) {
	m := len(pattern)
	blocks := (m + wordBits - 1) / wordBits
	s.peqBlocks(pattern, blocks)
	vps, vns := s.blockVectors(blocks)
	score := m
	top := uint((m - 1) % wordBits) // last-row bit within the last block
	last := blocks - 1
	n := len(text)
	for j := 0; j < n; j++ {
		ci := text[j] & 3
		eqs := s.peq[ci]
		hin := 1 // top boundary: D(0,j) − D(0,j−1) = +1
		for b := 0; b <= last; b++ {
			eq := eqs[b]
			vp, vn := vps[b], vns[b]
			var hinNeg, hinPos uint64
			if hin < 0 {
				hinNeg = 1
			} else if hin > 0 {
				hinPos = 1
			}
			// A −1 carried in lets the block's first cell take the
			// diagonal, exactly as a matching base would.
			eq |= hinNeg
			d0 := (((eq & vp) + vp) ^ vp) | eq | vn
			hp := vn | ^(d0 | vp)
			hn := d0 & vp
			if b == last {
				score += int((hp >> top) & 1)
				score -= int((hn >> top) & 1)
			} else {
				hin = int((hp>>63)&1) - int((hn>>63)&1)
			}
			hp = hp<<1 | hinPos
			hn = hn<<1 | hinNeg
			vps[b] = hn | ^(d0 | hp)
			vns[b] = d0 & hp
		}
		if k >= 0 && score-(n-j-1) > k {
			return 0, false
		}
	}
	if k >= 0 && score > k {
		return 0, false
	}
	return score, true
}

// bandMaxK is the largest threshold whose Ukkonen band fits one word: the
// band holds at most k+1 diagonals, so k ≤ 63 keeps it within 64 bits.
const bandMaxK = wordBits - 1

// bandPad is the zero padding, in bits, on each side of the band kernel's
// pattern masks: the 64-bit match window starts up to 63 rows above row 1
// and ends up to 63 rows below row m, and those rows never match.
const bandPad = wordBits

// bandMasks fills the scratch's flat per-base match masks for the band
// kernel and returns them with their per-base stride in words. Base c's
// mask occupies masks[c*stride:(c+1)*stride]; bit bandPad+i is set when
// pattern[i] holds c, and every padding bit is zero. The padding is one
// whole word, so word q ≥ 1 holds pattern[(q−1)·64 : q·64], and one spare
// word past the pattern lets the kernel read any 64-bit window as two words.
func (s *Scratch) bandMasks(pattern dna.Seq) (masks []uint64, stride int) {
	stride = (len(pattern)+2*bandPad)/wordBits + 1
	n := dna.NumBases * stride
	if cap(s.bpeq) < n {
		s.bpeq = make([]uint64, n)
	}
	masks = s.bpeq[:n]
	for q := 0; q < stride; q++ {
		var lo, hi, valid uint64
		if start := (q - 1) * wordBits; start >= 0 && start < len(pattern) {
			lo, hi, valid = basePlanes(pattern[start:min(start+wordBits, len(pattern))])
		}
		masks[q] = valid &^ (lo | hi)
		masks[stride+q] = lo &^ hi
		masks[2*stride+q] = hi &^ lo
		masks[3*stride+q] = lo & hi
	}
	return masks, stride
}

// basePlanes packs up to 64 bases into two bit planes: bit i of lo and hi
// are bits 0 and 1 of chunk[i] (the base code c&3), and valid has one bit
// per base. Eight bases at a time are gathered with one multiply per plane:
// with one bit at the bottom of each byte, the product by gatherMul lands
// byte i's bit at position 56+i and no two partial products collide.
func basePlanes(chunk dna.Seq) (lo, hi, valid uint64) {
	const lowBits = 0x0101010101010101
	const gatherMul = 0x0102040810204080
	i := 0
	for ; i+8 <= len(chunk); i += 8 {
		g := chunk[i : i+8 : i+8]
		x := uint64(g[0]) | uint64(g[1])<<8 | uint64(g[2])<<16 | uint64(g[3])<<24 |
			uint64(g[4])<<32 | uint64(g[5])<<40 | uint64(g[6])<<48 | uint64(g[7])<<56
		lo |= ((x & lowBits) * gatherMul >> 56) << uint(i)
		hi |= ((x >> 1 & lowBits) * gatherMul >> 56) << uint(i)
	}
	for ; i < len(chunk); i++ {
		lo |= uint64(chunk[i]&1) << uint(i)
		hi |= uint64(chunk[i]>>1&1) << uint(i)
	}
	valid = ^uint64(0) >> uint(wordBits-len(chunk))
	return lo, hi, valid
}

// WithinBand is the one-word Ukkonen-band kernel behind Within for k ≤ 63;
// results are identical to WithinDP on every input. Thresholds whose band
// does not fit one word go to WithinBP.
//
//dnalint:hotpath
func (s *Scratch) WithinBand(a, b dna.Seq, k int) (int, bool) {
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
	if k > bandMaxK {
		return s.WithinBP(a, b, k)
	}
	if la > lb {
		a, b = b, a
	}
	return s.myersBand(a, b, k)
}

// myersBand runs Myers' recurrence over the Ukkonen band only: the k+1 (at
// most) diagonals δ = j − i with |δ| + |Δ−δ| ≤ k, Δ = len(text) −
// len(pattern) ≥ 0, the only diagonals an alignment of cost ≤ k can visit.
// Bit b of the word is diagonal hi − b, so in text column j it holds row
// j − hi + b and the word slides down one row per column: the previous
// column's vertical deltas are shifted right one bit to line up with the new
// rows, and the pattern's match masks are read as a 64-bit window.
//
// Cells outside the band are virtual and only ever overestimate. The row
// entering at the bottom carries a +1 vertical delta, and the row above the
// top carries a +1 horizontal delta, as in the plain kernels. Rows above
// row 0 are seeded with D(−r, j) = j + r, which the recurrence reproduces
// column after column, so the top of the matrix needs no special case. Every
// computed cell is therefore the cost of a real alignment, and every cell on
// an optimal path of cost ≤ k is exact.
//
// The score tracked is D(j − Δ, j) on the goal diagonal, which starts at
// |Δ| in column 0 and grows by 1 − D0 per column. It never decreases, so
// the kernel stops as soon as it exceeds k: the final distance is at least
// the computed score, and the computed score is exact whenever it is ≤ k.
// Requires 1 ≤ len(pattern) ≤ len(text) and len(text) − len(pattern) ≤ k ≤
// bandMaxK.
//
//dnalint:hotpath
func (s *Scratch) myersBand(pattern, text dna.Seq, k int) (int, bool) {
	delta := len(text) - len(pattern)
	e := (k - delta) / 2
	hi := delta + e            // top diagonal (bit 0)
	w := uint(delta + 2*e + 1) // band width, ≤ k+1 ≤ 64
	goal := uint(e)            // bit of the goal diagonal Δ (= hi − Δ)
	bottom := uint64(1) << (w - 1)
	keep := bottom - 1 // bits above the band's bottom row
	masks, stride := s.bandMasks(pattern)
	// Column 0: rows b − hi ≤ 0 (bits 0..hi) are row 0 and the virtual rows
	// above it, vertical delta −1; rows ≥ 1 have vertical delta +1.
	vn := uint64(1)<<uint(hi+1) - 1
	vp := ^vn
	score := delta
	// Bit 0 of column j+1's match window is pattern position j − hi, stored
	// at bit j − hi + bandPad ≥ 1 of each mask.
	off, ustride := uint(bandPad-hi), uint(stride)
	for j, c := range text {
		o := off + uint(j)
		i, r := uint(c&3)*ustride+o/wordBits, o%wordBits
		eq := masks[i]>>r | masks[i+1]<<(wordBits-r)
		pv := vp>>1 | bottom
		mv := vn >> 1 & keep
		d0 := (((eq & pv) + pv) ^ pv) | eq | mv
		hp := mv | ^(d0 | pv)
		hn := d0 & pv
		hp = hp<<1 | 1
		hn <<= 1
		vp = hn | ^(d0 | hp)
		vn = d0 & hp
		score += 1 - int(d0>>goal&1)
		if score > k {
			return 0, false
		}
	}
	return score, true
}
