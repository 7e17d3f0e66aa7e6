// Bit-parallel edit-distance kernels (Myers 1999, in Hyyrö's global-distance
// formulation). The classic DP computes one cell per step; Myers' recurrence
// encodes a whole DP column as two bit-vectors of vertical deltas (VP bit i
// set when D(i+1,j)−D(i,j) = +1, VN when −1) and advances all 64 cells of a
// machine word with a constant number of word operations. Over the 4-letter
// DNA alphabet the only per-pattern state is a tiny Peq table: one bitmask
// per base marking the pattern positions holding that base.
//
// Two kernels share the recurrence. myersBlocked computes whole columns for
// a pattern of any length: the column is split into ⌈m/64⌉ block words with
// the ±1 horizontal delta carried from block to block Hyyrö-style, the block
// vectors living in the Scratch so steady-state calls allocate nothing. It
// tracks the running bottom-row score D(m,j), and its thresholded form bails
// as soon as score − (columns remaining) exceeds k, which is sound because
// the bottom row changes by at most ±1 per column.
//
// myersBand computes only the Ukkonen band of a threshold check: the at most
// k+1 diagonals an alignment of cost ≤ k can visit, held in one word that
// slides down one row per text column, for any pattern length. It tracks the
// score on the goal diagonal, which never decreases, and bails as soon as it
// exceeds k — at 6 % error on 128-nt reads about half-way through the text
// for unrelated pairs, where the bottom-row bound waits until three quarters.
//
// Within sends k ≤ 63 to myersBand and larger thresholds to myersBlocked;
// Levenshtein always runs myersBlocked. The DP kernels in edit.go are the
// reference implementation: both kernels return identical distances and
// verdicts, held to the DP by the parity tests and the FuzzMyersVsDP and
// FuzzBandVsDP differential fuzzers.
package edit

import "dnastore/internal/dna"

// wordBits is the DP-cells-per-word width of the bit-parallel kernels.
const wordBits = 64

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

// myersBlocked runs the blocked (Hyyrö) recurrence for a pattern of any
// length m ≥ 1 against a text of any length: the column is split into
// ⌈m/64⌉ block words and the ±1 horizontal delta at each block boundary is
// carried into the next block's recurrence. k < 0 disables the threshold
// (the distance is always returned with ok=true); k ≥ 0 returns (0, false)
// as soon as the distance provably exceeds k. All state lives in the
// Scratch.
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
