// Package chaos injects seeded, deterministic faults into DNA storage
// pipeline modules, for driving degradation tests against the fault-tolerant
// runtime in internal/core. Two granularities are provided:
//
//   - Stage wrappers (Simulator, Clusterer, Reconstructor) decorate a whole
//     pipeline stage with injected latency, whole-stage panics, and — for the
//     simulator — read drops and read truncation. A stage panic exercises
//     the orchestrator's panic containment (core.ErrStagePanic).
//   - Work-item wrappers (Channel, Algorithm) decorate the units the
//     built-in worker pools iterate over, panicking on one in N strand
//     transmissions or clusters. These exercise the per-item salvage paths:
//     a panicked strand degrades to a dropout, a panicked cluster to an
//     erasure, and the outer Reed–Solomon code absorbs both (§IV).
//
// Stage wrappers count their calls; work-item wrappers pick the faulted
// items by a hash of the item itself, because pool workers reach
// items in a scheduling-dependent order. Either way a chaotic run is
// exactly reproducible.
package chaos

import (
	"context"
	"sync/atomic"
	"time"

	"dnastore/internal/cluster"
	"dnastore/internal/core"
	"dnastore/internal/dna"
	"dnastore/internal/obs"
	"dnastore/internal/recon"
	"dnastore/internal/sim"
	"dnastore/internal/xrand"
)

// Faults configures the injected failure modes. The zero value injects
// nothing.
type Faults struct {
	// Seed drives all randomized fault decisions.
	Seed uint64
	// DropRead is the probability that each simulated read is silently
	// discarded (models strand loss between sequencing and analysis).
	DropRead float64
	// TruncateRead is the probability that each surviving read is cut off
	// at a random interior position (models early sequencing termination).
	TruncateRead float64
	// ScrambleIndex is the probability that each surviving read's leading
	// ScrambleBases bases are overwritten with random ones (models
	// synthesis/sequencing damage concentrated on the index prefix, which
	// defeats the streaming demux's routing — such reads must land in the
	// spill shard, never be misrouted silently into another volume).
	ScrambleIndex float64
	// ScrambleBases is the width of the scrambled prefix. Defaults to 8
	// (the codec's default IndexBases) when ScrambleIndex is set.
	ScrambleBases int
	// StageLatency is added to every wrapped stage invocation before any
	// work happens. The injected sleep honours context cancellation, so
	// deadline tests abort promptly.
	StageLatency time.Duration
	// PanicEveryN makes every Nth wrapped stage invocation panic. 0 never
	// panics.
	PanicEveryN int
}

// PanicHook returns an obs.Hook that panics on every everyN'th StageBegin
// event of the named stage — fault injection that rides the observability
// spine instead of wrapping a module. Because hooks run synchronously on the
// stage's goroutine, the panic erupts inside the orchestrator's stage
// boundary and must surface as core.ErrStagePanic carrying the stage name.
// A third injection granularity alongside the stage and work-item wrappers:
// it needs no knowledge of the stage's interface, so it also reaches stages
// that have no wrapper (encode, decode, demux). everyN <= 0 never panics.
func PanicHook(stage string, everyN int) obs.Hook {
	var calls counter
	return func(ev obs.Event) {
		if ev.Kind != obs.StageBegin || ev.Stage != stage {
			return
		}
		if calls.tick(everyN) {
			panic("chaos: injected hook panic in " + stage)
		}
	}
}

// counter is a concurrency-safe deterministic call counter.
type counter struct{ n atomic.Int64 }

// tick increments and reports whether this call is an injection point.
func (c *counter) tick(every int) bool {
	if every <= 0 {
		return false
	}
	return c.n.Add(1)%int64(every) == 0
}

// sleepCtx sleeps for d unless ctx is cancelled first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return context.Cause(ctx)
	case <-t.C:
		return nil
	}
}

// Simulator wraps a core.Simulator with fault injection: injected stage
// latency, whole-stage panics, read drops and read truncation. Use a
// pointer so the call counter is shared across invocations.
type Simulator struct {
	Inner  core.Simulator
	Faults Faults
	calls  counter
}

// Simulate implements core.Simulator.
func (s *Simulator) Simulate(ctx context.Context, strands []dna.Seq) ([]sim.Read, error) {
	if err := sleepCtx(ctx, s.Faults.StageLatency); err != nil {
		return nil, err
	}
	if s.calls.tick(s.Faults.PanicEveryN) {
		panic("chaos: injected simulator panic")
	}
	reads, err := s.Inner.Simulate(ctx, strands)
	if err != nil {
		return nil, err
	}
	return s.applyReadFaults(ctx, reads, xrand.Derive(s.Faults.Seed, 0xc4a05))
}

// SimulateVolume implements core.VolumeSimulator so the chaos wrapper is
// transparent to the streaming runtime: the inner simulator's per-volume
// seed derivation is preserved when available, and the fault RNG is derived
// per volume, so injected faults depend only on (Faults.Seed, volume id) —
// never on which volumes are in flight.
func (s *Simulator) SimulateVolume(ctx context.Context, volume uint32, strands []dna.Seq) ([]sim.Read, error) {
	if err := sleepCtx(ctx, s.Faults.StageLatency); err != nil {
		return nil, err
	}
	if s.calls.tick(s.Faults.PanicEveryN) {
		panic("chaos: injected simulator panic")
	}
	var reads []sim.Read
	var err error
	if vs, ok := s.Inner.(core.VolumeSimulator); ok {
		reads, err = vs.SimulateVolume(ctx, volume, strands)
	} else {
		reads, err = s.Inner.Simulate(ctx, strands)
	}
	if err != nil {
		return nil, err
	}
	return s.applyReadFaults(ctx, reads, xrand.Derive(s.Faults.Seed, 0xc4a05^uint64(volume)))
}

// applyReadFaults runs the per-read fault lottery (drop, truncate, index
// scramble) over reads with the given deterministic RNG.
func (s *Simulator) applyReadFaults(ctx context.Context, reads []sim.Read, rng *xrand.RNG) ([]sim.Read, error) {
	if s.Faults.DropRead <= 0 && s.Faults.TruncateRead <= 0 && s.Faults.ScrambleIndex <= 0 {
		return reads, nil
	}
	scrambleBases := s.Faults.ScrambleBases
	if scrambleBases <= 0 {
		scrambleBases = 8
	}
	out := make([]sim.Read, 0, len(reads))
	for i, r := range reads {
		if i&0xfff == 0 && ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		if rng.Bool(s.Faults.DropRead) {
			continue
		}
		if rng.Bool(s.Faults.TruncateRead) && len(r.Seq) > 1 {
			r.Seq = r.Seq[:1+rng.Intn(len(r.Seq)-1)]
		}
		if rng.Bool(s.Faults.ScrambleIndex) && len(r.Seq) > 0 {
			n := min(scrambleBases, len(r.Seq))
			scrambled := r.Seq.Clone()
			for b := 0; b < n; b++ {
				scrambled[b] = dna.Base(rng.Intn(dna.NumBases))
			}
			r.Seq = scrambled
		}
		out = append(out, r)
	}
	return out, nil
}

// Clusterer wraps a core.Clusterer with injected stage latency and
// whole-stage panics.
type Clusterer struct {
	Inner  core.Clusterer
	Faults Faults
	calls  counter
}

// Cluster implements core.Clusterer.
func (c *Clusterer) Cluster(ctx context.Context, reads []dna.Seq) (cluster.Result, error) {
	if err := sleepCtx(ctx, c.Faults.StageLatency); err != nil {
		return cluster.Result{}, err
	}
	if c.calls.tick(c.Faults.PanicEveryN) {
		panic("chaos: injected clusterer panic")
	}
	return c.Inner.Cluster(ctx, reads)
}

// ClusterVolume implements core.VolumeClusterer, preserving the inner
// clusterer's per-volume seed derivation when it has one.
func (c *Clusterer) ClusterVolume(ctx context.Context, volume uint32, reads []dna.Seq) (cluster.Result, error) {
	if err := sleepCtx(ctx, c.Faults.StageLatency); err != nil {
		return cluster.Result{}, err
	}
	if c.calls.tick(c.Faults.PanicEveryN) {
		panic("chaos: injected clusterer panic")
	}
	if vc, ok := c.Inner.(core.VolumeClusterer); ok {
		return vc.ClusterVolume(ctx, volume, reads)
	}
	return c.Inner.Cluster(ctx, reads)
}

// Reconstructor wraps a core.Reconstructor with injected stage latency and
// whole-stage panics.
type Reconstructor struct {
	Inner  core.Reconstructor
	Faults Faults
	calls  counter
}

// ReconstructAll implements core.Reconstructor.
func (r *Reconstructor) ReconstructAll(ctx context.Context, clusters [][]dna.Seq, targetLen int) ([]dna.Seq, error) {
	if err := sleepCtx(ctx, r.Faults.StageLatency); err != nil {
		return nil, err
	}
	if r.calls.tick(r.Faults.PanicEveryN) {
		panic("chaos: injected reconstructor panic")
	}
	return r.Inner.ReconstructAll(ctx, clusters, targetLen)
}

// Name implements core.Reconstructor.
func (r *Reconstructor) Name() string { return "chaos(" + r.Inner.Name() + ")" }

// hashSeq folds a sequence into an FNV-1a hash, length included, so that
// concatenations of different splits hash differently.
func hashSeq(h uint64, s dna.Seq) uint64 {
	for _, b := range s {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	return (h ^ uint64(len(s))) * 0x100000001b3
}

// itemFault reports whether the work item with hash h is an injection
// point: one item in every, on average, chosen by the hash alone. A counter
// shared by pool workers would instead fault whichever item a worker
// happened to reach Nth.
func itemFault(every int, h uint64) bool {
	if every <= 0 {
		return false
	}
	// splitmix64's finalizer spreads the FNV state before the modulus.
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	h ^= h >> 31
	return h%uint64(every) == 0
}

// Channel wraps a sim.Channel, panicking on one in PanicEveryN strand
// transmissions — inside the simulation worker pool, where the per-strand
// salvage path must contain it as a dropout. The faulted transmissions are
// chosen by a hash of the strand and the transmission's next random draw
// (peeked, not consumed), so the choice does not depend on worker
// scheduling and each copy of a strand gets its own chance.
type Channel struct {
	Inner       sim.Channel
	PanicEveryN int
}

// Transmit implements sim.Channel.
func (c Channel) Transmit(rng *xrand.RNG, strand dna.Seq) dna.Seq {
	if c.PanicEveryN > 0 {
		peek := *rng
		if itemFault(c.PanicEveryN, hashSeq(peek.Uint64(), strand)) {
			panic("chaos: injected channel panic")
		}
	}
	return c.Inner.Transmit(rng, strand)
}

// Name implements sim.Channel.
func (c Channel) Name() string { return "chaos(" + c.Inner.Name() + ")" }

// Algorithm wraps a recon.Algorithm, panicking on one in PanicEveryN
// reconstructed clusters — inside the reconstruction worker pool, where the
// per-cluster salvage path must contain it as an erasure. The faulted
// clusters are chosen by a hash of the cluster's reads, so the choice does
// not depend on worker scheduling.
type Algorithm struct {
	Inner       recon.Algorithm
	PanicEveryN int
}

// Reconstruct implements recon.Algorithm.
func (a Algorithm) Reconstruct(reads []dna.Seq, targetLen int) dna.Seq {
	if a.PanicEveryN > 0 {
		h := uint64(0xcbf29ce484222325)
		for _, r := range reads {
			h = hashSeq(h, r)
		}
		if itemFault(a.PanicEveryN, h) {
			panic("chaos: injected reconstruction panic")
		}
	}
	return a.Inner.Reconstruct(reads, targetLen)
}

// Name implements recon.Algorithm.
func (a Algorithm) Name() string { return "chaos(" + a.Inner.Name() + ")" }
