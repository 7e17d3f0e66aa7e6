package cluster

import (
	"math"
	"reflect"
	"testing"

	"dnastore/internal/dna"
	"dnastore/internal/xrand"
)

// fuzzRead maps arbitrary fuzzer bytes onto valid bases, capped so the
// per-input work stays small enough for the fuzz loop.
func fuzzRead(raw []byte) dna.Seq {
	const maxLen = 300
	if len(raw) > maxLen {
		raw = raw[:maxLen]
	}
	s := make(dna.Seq, len(raw))
	for i, b := range raw {
		s[i] = dna.Base(b % dna.NumBases)
	}
	return s
}

// FuzzSigDistance is the differential fuzzer pinning the bit-packed
// signature kernels to the reference signature machinery: for an arbitrary
// gram set and read pair, the chain-indexed signatures must equal
// signatureScratch's, the packed q-gram presence words must equal the
// reference signature packed bit for bit, hammingPacked must equal
// gramSet.distance, and wgramDistanceWithin must honour its contract
// against gramSet.distance (exact inside the threshold band, anything
// above it outside). It also pins the kernels behind gathered signatures and
// the QGram straggler sweep (checkPresenceAndPlanes).
func FuzzSigDistance(f *testing.F) {
	f.Add([]byte("ACGTACGTACGTACGTACGTACGT"), []byte("ACGTACCTACGTACGAACGTACGT"), uint64(1), byte(0), byte(48), byte(4), uint16(18))
	f.Add([]byte("GATTACAGATTACAGATTACA"), []byte("TTTTTTTTTTTTTTTTTTTTT"), uint64(7), byte(1), byte(24), byte(3), uint16(40))
	f.Add([]byte(""), []byte("ACGT"), uint64(3), byte(1), byte(8), byte(6), uint16(1000))
	f.Add([]byte("AAAACCCCGGGGTTTT"), []byte("AAAACCCCGGGGTTTT"), uint64(9), byte(0), byte(1), byte(1), uint16(0))
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, seed uint64, modeB, countB, qB byte, thetaB uint16) {
		a, b := fuzzRead(rawA), fuzzRead(rawB)
		mode := QGram
		if modeB&1 == 1 {
			mode = WGram
		}
		count := 1 + int(countB)%96
		q := 1 + int(qB)%maxRollingQ
		gs := newGramSet(xrand.Derive(seed, 1), mode, count, q)

		checkPresenceAndPlanes(t, a, b, seed, count)

		var sc sigScratch
		refA := append([]int32(nil), gs.signatureScratch(a, &sc)...)
		refB := append([]int32(nil), gs.signatureScratch(b, &sc)...)

		var gi gramIndex
		gi.build(gs)
		gotA := make([]int32, count)
		gotB := make([]int32, count)
		gi.signatureInto(gs, a, gotA)
		gi.signatureInto(gs, b, gotB)
		if !reflect.DeepEqual(gotA, refA) || !reflect.DeepEqual(gotB, refB) {
			t.Fatalf("signatureInto diverges from signatureScratch (mode %v, count %d, q %d)", mode, count, q)
		}

		refD := gs.distance(refA, refB)
		if mode == QGram {
			packedA := make([]uint64, sigWords(count))
			packedB := make([]uint64, sigWords(count))
			gi.qsigBitsInto(gs, a, packedA)
			gi.qsigBitsInto(gs, b, packedB)
			wantA := make([]uint64, sigWords(count))
			wantB := make([]uint64, sigWords(count))
			packQSig(refA, wantA)
			packQSig(refB, wantB)
			if !reflect.DeepEqual(packedA, wantA) || !reflect.DeepEqual(packedB, wantB) {
				t.Fatalf("qsigBitsInto diverges from packed reference signature")
			}
			if got := hammingPacked(packedA, packedB); got != refD {
				t.Fatalf("hammingPacked = %d, gramSet.distance = %d", got, refD)
			}
			return
		}
		thetaHigh := int(thetaB)
		got := wgramDistanceWithin(refA, refB, thetaHigh)
		if refD <= thetaHigh {
			if got != refD {
				t.Fatalf("wgramDistanceWithin(th=%d) = %d inside band, reference %d", thetaHigh, got, refD)
			}
		} else if got <= thetaHigh {
			t.Fatalf("wgramDistanceWithin(th=%d) = %d <= th, reference %d", thetaHigh, got, refD)
		}
		// Degenerate band (thetaHigh >= WGramFar): the kernel must be exact
		// everywhere, not merely above/below the threshold.
		if got := wgramDistanceWithin(refA, refB, WGramFar+1); got != refD {
			t.Fatalf("wgramDistanceWithin(th>WGramFar) = %d, reference %d", got, refD)
		}
	})
}

// checkPresenceAndPlanes pins, for a 4-gram QGram set of count grams:
//   - the signature gathered from a read's presence set equals
//     qsigBitsInto's, short reads included;
//   - bit-planes built from up to sweepSigReads member reads (derived from
//     a and b) hold each gram's member count, and their summed counts;
//   - planeMeanDistance equals gramSet.meanDistance against the reference
//     averaged signature bit for bit;
//   - the exact integer screen key is within sweepRoundoff of that float32
//     distance.
func checkPresenceAndPlanes(t *testing.T, a, b dna.Seq, seed uint64, count int) {
	t.Helper()
	gs := newGramSet(xrand.Derive(seed, 2), QGram, count, presQ)
	var gi gramIndex
	gi.build(gs)
	gw := sigWords(count)
	for _, r := range []dna.Seq{a, b} {
		var p gramPresence
		presenceOf(r, &p)
		want := make([]uint64, gw)
		gi.qsigBitsInto(gs, r, want)
		got := make([]uint64, gw)
		qsigGather(gs.codes, &p, got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("qsigGather diverges from qsigBitsInto (len %d, count %d)", len(r), count)
		}
	}

	// Members: a and b alternately, rotated so they differ; the planes are
	// checked after each member, so every member count 1..sweepSigReads is
	// covered, against both reads as the straggler.
	planes := make([]uint64, sweepPlanes*gw)
	sum := make([]float32, count)
	bits := make([]uint64, gw)
	mean := make([]float32, count)
	var sc sigScratch
	c := 0
	for n := 1; n <= sweepSigReads; n++ {
		base := a
		if n%2 == 0 {
			base = b
		}
		m := base
		if len(base) > 0 {
			s := n * 7 % len(base)
			m = append(append(dna.Seq(nil), base[s:]...), base[:s]...)
		}
		for g, v := range gs.signatureScratch(m, &sc) {
			sum[g] += float32(v)
		}
		gi.qsigBitsInto(gs, m, bits)
		c += planeAdd(planes, bits)

		total := 0
		for g := range mean {
			if got := planeCount(planes, gw, g); got != int(sum[g]) {
				t.Fatalf("n=%d: plane count of gram %d = %d, member count %v", n, g, got, sum[g])
			}
			total += int(sum[g])
			mean[g] = sum[g] / float32(n) // the reference: count[g] == n in QGram
		}
		if c != total {
			t.Fatalf("n=%d: summed plane counts %d, member counts %d", n, c, total)
		}

		for _, r := range []dna.Seq{a, b} {
			sig := gs.signatureScratch(r, &sc)
			s := make([]uint64, gw)
			packQSig(sig, s)
			p := 0
			for _, v := range sig {
				p += int(v)
			}
			want := gs.meanDistance(sig, mean)
			got := planeMeanDistance(planes, s, n, count)
			if math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("n=%d: planeMeanDistance = %v, meanDistance = %v (count %d)", n, got, want, count)
			}
			key := planeScreenKey(planes, s, p, n, c)
			if diff := math.Abs(float64(want) - float64(key)/sweepKeyScale); diff > sweepRoundoff(count) {
				t.Fatalf("n=%d: screen key %d (%.9g) is %.3g from meanDistance %v, beyond ε %.3g",
					n, key, float64(key)/sweepKeyScale, diff, want, sweepRoundoff(count))
			}
		}
	}
}

// planeCount is gram g's member count in planes (gw words per plane).
func planeCount(planes []uint64, gw, g int) int {
	c := 0
	for b := 0; b < sweepPlanes; b++ {
		c |= int(planes[b*gw+(g>>6)]>>(uint(g)&63)&1) << b
	}
	return c
}
