package edit

import (
	"bytes"
	"testing"

	"dnastore/internal/dna"
)

// fuzzSeq maps arbitrary fuzzer bytes onto valid bases, capped so the
// quadratic DP stays fast enough for the fuzz loop.
func fuzzSeq(raw []byte) dna.Seq {
	const maxLen = 200
	if len(raw) > maxLen {
		raw = raw[:maxLen]
	}
	s := make(dna.Seq, len(raw))
	for i, b := range raw {
		s[i] = dna.Base(b % dna.NumBases)
	}
	return s
}

// FuzzLevenshtein cross-checks the three edit-distance entry points on the
// same inputs: the full distance (Levenshtein), the early-exit threshold
// check (Within) and the traceback alignment (Align, a full DP) must all
// agree, and the alignment must be structurally valid for the two
// sequences.
func FuzzLevenshtein(f *testing.F) {
	f.Add([]byte("ACGT"), []byte("ACCT"), byte(2))
	f.Add([]byte{}, []byte("TTTT"), byte(1))
	f.Add([]byte("GATTACA"), []byte("GCATGCT"), byte(10))
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, kb byte) {
		a, b := fuzzSeq(rawA), fuzzSeq(rawB)
		d := Levenshtein(a, b)
		if rev := Levenshtein(b, a); rev != d {
			t.Fatalf("asymmetric distance: d(a,b)=%d d(b,a)=%d", d, rev)
		}

		k := int(kb)
		if got, ok := Within(a, b, k); ok {
			if got != d {
				t.Fatalf("Within(k=%d) = %d, full DP says %d", k, got, d)
			}
			if got > k {
				t.Fatalf("Within(k=%d) reported ok with distance %d > k", k, got)
			}
		} else if d <= k {
			t.Fatalf("Within(k=%d) said no, full DP says %d", k, d)
		}

		ops, cost := Align(a, b)
		if cost != d {
			t.Fatalf("Align cost %d != Levenshtein %d", cost, d)
		}
		if Cost(ops) != cost {
			t.Fatalf("Cost(ops) = %d != Align cost %d", Cost(ops), cost)
		}
		// Replay the op sequence against both sequences: it must consume
		// exactly len(a) and len(b) bases and only claim Match when true.
		i, j := 0, 0
		for _, op := range ops {
			switch op {
			case Match:
				if i >= len(a) || j >= len(b) || a[i] != b[j] {
					t.Fatalf("invalid Match at a[%d],b[%d]", i, j)
				}
				i++
				j++
			case Sub:
				if i >= len(a) || j >= len(b) || a[i] == b[j] {
					t.Fatalf("invalid Sub at a[%d],b[%d]", i, j)
				}
				i++
				j++
			case Ins:
				j++
			case Del:
				i++
			default:
				t.Fatalf("unknown op %v", op)
			}
		}
		if i != len(a) || j != len(b) {
			t.Fatalf("alignment consumed %d/%d and %d/%d bases", i, len(a), j, len(b))
		}
	})
}

// FuzzMyersVsDP is the differential fuzzer for the bit-parallel kernels: on
// arbitrary sequence pairs and thresholds, Levenshtein must equal the DP
// distance and Within must return exactly WithinDP's (distance, verdict).
// k is a uint16 so the fuzzer reaches thresholds beyond any real distance
// (Within clamps them) and runs both kernels; lengths up to fuzzSeq's cap
// cross the one-word/blocked pattern boundary at 64.
func FuzzMyersVsDP(f *testing.F) {
	f.Add([]byte("ACGT"), []byte("ACCT"), uint16(2))
	f.Add([]byte{}, []byte("TTTT"), uint16(1))
	f.Add([]byte("GATTACAGATTACAGATTACAGATTACAGATTACAGATTACAGATTACAGATTACAGATTACAGATTACA"),
		[]byte("GCATGCTGCATGCTGCATGCTGCATGCTGCATGCTGCATGCTGCATGCTGCATGCTGCATGCTGCATGCT"), uint16(30))
	f.Add([]byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"),
		[]byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAT"), uint16(0))
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, k16 uint16) {
		a, b := fuzzSeq(rawA), fuzzSeq(rawB)
		var s Scratch
		want := s.LevenshteinDP(a, b)
		if got := s.Levenshtein(a, b); got != want {
			t.Fatalf("Levenshtein = %d, DP = %d (lens %d,%d)", got, want, len(a), len(b))
		}
		k := int(k16)
		wd, wok := s.WithinDP(a, b, k)
		if gd, gok := s.Within(a, b, k); gd != wd || gok != wok {
			t.Fatalf("Within(k=%d) = (%d,%v), WithinDP = (%d,%v) (lens %d,%d)",
				k, gd, gok, wd, wok, len(a), len(b))
		}
	})
}

// FuzzBandVsDP is the differential fuzzer for the one-word band kernel:
// Within must return exactly WithinDP's (distance, verdict) in both
// argument orders. k runs over 0..70, across the 63/64 limit where Within
// leaves the band kernel, and sequences run to 300 bases, past three words
// of pattern.
func FuzzBandVsDP(f *testing.F) {
	long := bytes.Repeat([]byte("GATTACA"), 30) // 210 bases
	f.Add([]byte{}, []byte{}, byte(0))
	f.Add([]byte{}, []byte("ACG"), byte(3))
	f.Add([]byte("ACGT"), []byte{}, byte(3))
	f.Add([]byte("ACGTACGT"), []byte("ACGTACGTTTT"), byte(3)) // |Δ| = k
	f.Add([]byte("ACGTACGT"), []byte("ACGTACGTTTT"), byte(2)) // |Δ| = k+1
	f.Add(long, long[7:], byte(7))
	f.Add(long, long[8:], byte(7))
	f.Add(long, append(append([]byte(nil), long[:100]...), long[101:]...), byte(63))
	f.Add(long, []byte("TTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTT"), byte(64))
	f.Add(long[:128], long[3:131], byte(35))
	f.Add(long[:128], long[3:131], byte(70))
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, kb byte) {
		if len(rawA) > 300 {
			rawA = rawA[:300]
		}
		if len(rawB) > 300 {
			rawB = rawB[:300]
		}
		a, b := make(dna.Seq, len(rawA)), make(dna.Seq, len(rawB))
		for i, c := range rawA {
			a[i] = dna.Base(c % dna.NumBases)
		}
		for i, c := range rawB {
			b[i] = dna.Base(c % dna.NumBases)
		}
		k := int(kb) % 71
		var s Scratch
		for _, p := range [2][2]dna.Seq{{a, b}, {b, a}} {
			wd, wok := s.WithinDP(p[0], p[1], k)
			if gd, gok := s.Within(p[0], p[1], k); gd != wd || gok != wok {
				t.Fatalf("Within(k=%d) = (%d,%v), DP = (%d,%v) (lens %d,%d)",
					k, gd, gok, wd, wok, len(p[0]), len(p[1]))
			}
		}
	})
}
