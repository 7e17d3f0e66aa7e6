package bench

import (
	"strings"
	"testing"

	"dnastore/internal/cluster"
	"dnastore/internal/dna"
	"dnastore/internal/recon"
	"dnastore/internal/sim"
	"dnastore/internal/xrand"
)

func TestTableIQuickShape(t *testing.T) {
	r := TableI(QuickTableI())
	if len(r.Rows) != 4 {
		t.Fatalf("got %d rows", len(r.Rows))
	}
	real := r.Real()
	rnn := r.Row("RNN")
	iid := r.Row("Rashtchian")
	solqc := r.Row("SOLQC")

	// Shape (ii): reconstructing the naive simulators' data is easier than
	// reconstructing real data; the data-driven model is closest to real.
	if iid.MeanErr >= real.MeanErr {
		t.Errorf("IID mean error %v not easier than real %v", iid.MeanErr, real.MeanErr)
	}
	if solqc.MeanErr >= real.MeanErr {
		t.Errorf("SOLQC mean error %v not easier than real %v", solqc.MeanErr, real.MeanErr)
	}
	// Shape (iii): the data-driven model deviates least from the real
	// profile.
	if rnn.MeanDev >= iid.MeanDev || rnn.MeanDev >= solqc.MeanDev {
		t.Errorf("RNN deviation %v not smallest (iid %v, solqc %v)", rnn.MeanDev, iid.MeanDev, solqc.MeanDev)
	}
	// Shape (iv): naive simulators yield more perfect strands than real;
	// the data-driven model is closest to real.
	if iid.Perfect <= real.Perfect {
		t.Errorf("IID perfect %d not above real %d", iid.Perfect, real.Perfect)
	}
	devRNN := absInt(rnn.Perfect - real.Perfect)
	devIID := absInt(iid.Perfect - real.Perfect)
	if devRNN >= devIID {
		t.Errorf("RNN perfect-count deviation %d not below IID %d", devRNN, devIID)
	}
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestTableIIQuickShape(t *testing.T) {
	r := TableII(QuickTableII())
	if len(r.Cells) != 4 {
		t.Fatalf("got %d cells", len(r.Cells))
	}
	// Table II measures the bare multi-round algorithm (no straggler
	// sweep), which degrades visibly at high error rates — exactly the
	// paper's trend, with the w-gram variant holding up better.
	lowQ := r.Cell(0.06, cluster.QGram)
	lowW := r.Cell(0.06, cluster.WGram)
	if lowQ.Accuracy < 0.9 || lowW.Accuracy < 0.9 {
		t.Errorf("rate 0.06: accuracy q=%v w=%v", lowQ.Accuracy, lowW.Accuracy)
	}
	highQ := r.Cell(0.12, cluster.QGram)
	highW := r.Cell(0.12, cluster.WGram)
	if highQ.Accuracy < 0.55 || highW.Accuracy < 0.55 {
		t.Errorf("rate 0.12: accuracy q=%v w=%v", highQ.Accuracy, highW.Accuracy)
	}
	for _, c := range r.Cells {
		if c.OverallTime <= 0 {
			t.Errorf("rate %v mode %v: missing timing", c.ErrorRate, c.Mode)
		}
	}
	// Higher error rates must cost more clustering time (the paper's trend).
	if r.Cell(0.12, cluster.QGram).EditCalls < r.Cell(0.06, cluster.QGram).EditCalls {
		t.Log("note: edit-call count did not grow with error rate at this scale")
	}
}

func TestFig5Shape(t *testing.T) {
	cfg := DefaultFig5()
	cfg.Strands = 150
	r := Fig5(cfg)
	if r.ThetaLow >= r.ThetaHigh {
		t.Fatalf("thresholds inverted: %d >= %d", r.ThetaLow, r.ThetaHigh)
	}
	if len(r.Histogram) == 0 {
		t.Fatal("no histogram")
	}
	// The bulk of the mass must lie above theta_high (different-strand bell).
	below, above := 0, 0
	for d, c := range r.Histogram {
		if d <= r.ThetaHigh {
			below += c
		} else {
			above += c
		}
	}
	if above <= below {
		t.Fatalf("histogram not dominated by the different-strand bell: below=%d above=%d", below, above)
	}
}

func TestFig6Shape(t *testing.T) {
	r := Fig6(QuickFig6())
	if len(r.Names) != 4 {
		t.Fatalf("names = %v", r.Names)
	}
	// BMA peaks late, DBMA peaks in the middle, NW has the lowest peak.
	bma := r.Profiles["bma"]
	dbma := r.Profiles["double-sided-bma"]
	n := len(bma)
	bmaTail := mean(bma[n-n/4:])
	bmaHead := mean(bma[:n/4])
	if bmaTail <= bmaHead {
		t.Errorf("BMA profile does not grow along the strand: head %v tail %v", bmaHead, bmaTail)
	}
	dbmaMid := mean(dbma[3*n/8 : 5*n/8])
	dbmaEdge := (mean(dbma[:n/4]) + mean(dbma[n-n/4:])) / 2
	if dbmaMid <= dbmaEdge {
		t.Errorf("DBMA errors not concentrated in middle: mid %v edge %v", dbmaMid, dbmaEdge)
	}
	if r.Peak("needleman-wunsch") >= r.Peak("bma") {
		t.Errorf("NW peak %v not below BMA peak %v", r.Peak("needleman-wunsch"), r.Peak("bma"))
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestTableIIIQuickShape(t *testing.T) {
	r, err := TableIII(QuickTableIII())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("got %d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if !row.Recovered {
			t.Errorf("%s (cov %d): file not recovered", row.Label(), row.Coverage)
		}
		if row.Times.Total() <= 0 {
			t.Errorf("%s: no timing", row.Label())
		}
	}
	// DBMA sweeps each half only up to the midpoint, so it costs about the
	// same as BMA (EXPERIMENTS.md Table III records DBMA ≈ BMA, not the
	// paper's 2×). Wall-clock recon time at this scale is too noisy to
	// assert on, so the claim is held on the sweep's deterministic work,
	// over one seeded cluster set at Table III's point: every BMA step votes
	// over every read of the cluster and appends one base, so a sweep costs
	// reads × consensus length vote positions, read from the outputs alone.
	cfg := QuickTableIII()
	const strandLen = 120
	rng := xrand.New(cfg.Seed)
	ch := sim.CalibratedIID(cfg.ErrorRate)
	clusters := make([][]dna.Seq, 200)
	for i := range clusters {
		ref := dna.Random(rng, strandLen)
		for c := 0; c < cfg.Coverages[0]; c++ {
			clusters[i] = append(clusters[i], ch.Transmit(rng, ref))
		}
	}
	votes := func(algo recon.Algorithm) int {
		n := 0
		for i, cons := range recon.ReconstructAll(clusters, strandLen, algo, 0) {
			n += len(clusters[i]) * len(cons)
		}
		return n
	}
	bma, dbma := votes(recon.BMA{}), votes(recon.DoubleSidedBMA{})
	if bma == 0 || 2*dbma < bma {
		t.Errorf("DBMA vote positions %d implausibly below half of BMA's %d", dbma, bma)
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	var sb strings.Builder
	t1 := TableI(QuickTableI())
	RenderTableI(&sb, t1)
	RenderFig3(&sb, t1)
	RenderTableII(&sb, TableII(QuickTableII()))
	RenderFig5(&sb, Fig5(Fig5Config{Strands: 100, StrandLen: 110, Coverage: 8, ErrorRate: 0.06, Seed: 3}))
	RenderFig6(&sb, Fig6(QuickFig6()))
	t3, err := TableIII(QuickTableIII())
	if err != nil {
		t.Fatal(err)
	}
	RenderTableIII(&sb, t3)
	out := sb.String()
	for _, want := range []string{"TABLE I", "FIG 3", "TABLE II", "FIG 5", "FIG 6", "TABLE III", "q-gram + DBMA"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}
