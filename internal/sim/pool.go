package sim

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"dnastore/internal/dna"
	"dnastore/internal/edit"
	"dnastore/internal/xrand"
)

// CoverageModel samples how many sequenced reads a synthesized strand
// yields. PCR amplification and sequencing sample molecules very unevenly,
// so realistic coverage is skewed (§II-E).
type CoverageModel interface {
	// Copies returns the number of reads for one strand (may be 0).
	Copies(rng *xrand.RNG) int
}

// FixedCoverage yields exactly N reads per strand.
type FixedCoverage int

// Copies implements CoverageModel.
func (f FixedCoverage) Copies(*xrand.RNG) int { return int(f) }

// PoissonCoverage yields Poisson(Mean) reads per strand, the classical
// shotgun-sequencing model.
type PoissonCoverage float64

// Copies implements CoverageModel.
func (p PoissonCoverage) Copies(rng *xrand.RNG) int { return rng.Poisson(float64(p)) }

// SkewedCoverage models PCR-amplification skew: a log-normal multiplier on
// the mean, then a Poisson draw. Sigma around 0.5 gives the long-tailed
// distributions seen in sequencing runs.
type SkewedCoverage struct {
	Mean  float64
	Sigma float64
}

// Copies implements CoverageModel.
func (s SkewedCoverage) Copies(rng *xrand.RNG) int {
	m := s.Mean * math.Exp(s.Sigma*rng.NormFloat64()-s.Sigma*s.Sigma/2)
	return rng.Poisson(m)
}

// Read is one simulated sequencing read. Origin records the index of the
// source strand: it is ground truth used only to score clustering and
// reconstruction, never consulted by the pipeline itself.
type Read struct {
	Seq    dna.Seq
	Origin int
}

// Options configures SimulatePool.
type Options struct {
	// Channel is the noise model. Required.
	Channel Channel
	// Coverage samples reads per strand. Defaults to FixedCoverage(10).
	Coverage CoverageModel
	// Dropout is the probability that a strand is lost entirely (synthesis
	// failure, storage decay) regardless of coverage.
	Dropout float64
	// Seed drives all randomness.
	Seed uint64
	// KeepOrder suppresses the final shuffle of reads. The default (false)
	// shuffles, because a real sequencer returns reads in no useful order.
	KeepOrder bool
}

// ErrNoChannel is returned (or panicked, by the legacy SimulatePool entry
// point) when Options.Channel is missing.
var ErrNoChannel = errors.New("sim: Options.Channel is required")

// SimulatePool pushes every strand through synthesis/storage/sequencing:
// each strand is replicated per the coverage model and every copy passes
// through the noise channel independently. Strands are processed in
// parallel with per-strand derived RNG streams, so results are deterministic
// regardless of GOMAXPROCS.
func SimulatePool(strands []dna.Seq, opts Options) []Read {
	reads, err := SimulatePoolContext(context.Background(), strands, opts)
	if err != nil {
		panic(err) // only ErrNoChannel is reachable with a background context
	}
	return reads
}

// SimulatePoolContext is SimulatePool with cooperative cancellation: workers
// check ctx between strands and the call returns the context's error when it
// is cancelled or its deadline passes. A Channel that panics on one strand
// loses only that strand's reads (the pipeline sees it as a dropout → column
// erasure); the panic never escapes the worker pool.
func SimulatePoolContext(ctx context.Context, strands []dna.Seq, opts Options) ([]Read, error) {
	if opts.Channel == nil {
		return nil, ErrNoChannel
	}
	cov := opts.Coverage
	if cov == nil {
		cov = FixedCoverage(10)
	}
	perStrand := make([][]Read, len(strands))
	workers := runtime.GOMAXPROCS(0)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Worker-level backstop: simulateStrand already salvages per-item
			// panics, but a panic in the dispatch loop itself must not kill
			// the process — the worker's remaining strands become dropouts.
			defer func() { _ = recover() }()
			for i := w; i < len(strands); i += workers {
				if stop.Load() {
					return
				}
				if ctx.Err() != nil {
					stop.Store(true)
					return
				}
				perStrand[i] = simulateStrand(strands[i], i, cov, opts)
			}
		}(w)
	}
	wg.Wait()
	if err := context.Cause(ctx); err != nil {
		return nil, err
	}
	var out []Read
	for _, reads := range perStrand {
		out = append(out, reads...)
	}
	if !opts.KeepOrder {
		rng := xrand.Derive(opts.Seed, ^uint64(0))
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	}
	return out, nil
}

// simulateStrand replicates one strand through the channel. A panic inside
// the coverage model or channel salvages the strand as a total dropout
// instead of killing the whole pool.
func simulateStrand(strand dna.Seq, i int, cov CoverageModel, opts Options) (reads []Read) {
	defer func() {
		if recover() != nil {
			reads = nil
		}
	}()
	rng := xrand.Derive(opts.Seed, uint64(i))
	if rng.Bool(opts.Dropout) {
		return nil
	}
	n := cov.Copies(rng)
	reads = make([]Read, 0, n)
	for c := 0; c < n; c++ {
		reads = append(reads, Read{Seq: opts.Channel.Transmit(rng, strand), Origin: i})
	}
	return reads
}

// Sequences strips ground-truth origins, returning just the read sequences.
func Sequences(reads []Read) []dna.Seq {
	out := make([]dna.Seq, len(reads))
	for i, r := range reads {
		out[i] = r.Seq
	}
	return out
}

// Pair is a paired clean/noisy training example for data-driven simulators.
type Pair struct {
	Clean dna.Seq
	Noisy dna.Seq
}

// GeneratePairs produces perStrand noisy reads of every strand through the
// channel, keeping the clean strand alongside — the paired dataset format
// data-driven simulators are trained on (§V-B).
func GeneratePairs(seed uint64, ch Channel, strands []dna.Seq, perStrand int) []Pair {
	out := make([]Pair, 0, len(strands)*perStrand)
	for i, s := range strands {
		rng := xrand.Derive(seed, uint64(i))
		for c := 0; c < perStrand; c++ {
			out = append(out, Pair{Clean: s, Noisy: ch.Transmit(rng, s)})
		}
	}
	return out
}

// MeasureErrorRate returns the mean per-base edit rate of a paired dataset:
// edit distance between noisy and clean divided by clean length, averaged
// over pairs. This is the only statistic the naive channels are allowed to
// calibrate against in the Table I experiment.
func MeasureErrorRate(pairs []Pair) float64 {
	if len(pairs) == 0 {
		return 0
	}
	var s edit.Scratch
	total := 0.0
	for _, p := range pairs {
		if len(p.Clean) == 0 {
			continue
		}
		total += float64(s.Levenshtein(p.Clean, p.Noisy)) / float64(len(p.Clean))
	}
	return total / float64(len(pairs))
}
