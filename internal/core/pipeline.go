// Package core wires the five modules of the DNA storage pipeline (§III)
// into an end-to-end system: Encoding → Simulation → Clustering → Trace
// Reconstruction → Decoding/ECC. Every stage is an interface, so any module
// can be swapped for a custom implementation — the paper's central design
// goal — and the orchestrator reports per-stage latency and quality
// statistics (the breakdown of Table III).
//
// The orchestrator is a fault-tolerant runtime: every stage receives a
// context.Context with optional per-stage deadlines (cancellation is
// cooperative — the built-in worker pools check it between work items), a
// panicking stage surfaces as a typed ErrStagePanic instead of crashing the
// process, failed decodes can be retried with escalated reconstruction
// settings, and best-effort mode salvages a partial file with a per-unit
// damage map rather than returning a bare error. See RunOptions.
package core

import (
	"context"
	"math"
	"time"

	"dnastore/internal/cluster"
	"dnastore/internal/codec"
	"dnastore/internal/dna"
	"dnastore/internal/obs"
	"dnastore/internal/recon"
	"dnastore/internal/sim"
	"dnastore/internal/xrand"
)

// Simulator produces noisy reads from encoded strands. The default wraps
// sim.SimulatePool; a fastq-backed implementation replaces it with real
// sequencing data (§VIII). Implementations should honour ctx cancellation
// between units of work and return the context's error when aborted.
type Simulator interface {
	Simulate(ctx context.Context, strands []dna.Seq) ([]sim.Read, error)
}

// Clusterer groups reads by (putative) origin, honouring ctx cancellation.
type Clusterer interface {
	Cluster(ctx context.Context, reads []dna.Seq) (cluster.Result, error)
}

// Reconstructor collapses each cluster into a consensus strand, honouring
// ctx cancellation between clusters.
type Reconstructor interface {
	ReconstructAll(ctx context.Context, clusters [][]dna.Seq, targetLen int) ([]dna.Seq, error)
	Name() string
}

// PoolSimulator adapts sim.Options to the Simulator interface.
type PoolSimulator struct {
	Options sim.Options
}

// Simulate implements Simulator.
func (p PoolSimulator) Simulate(ctx context.Context, strands []dna.Seq) ([]sim.Read, error) {
	return sim.SimulatePoolContext(ctx, strands, p.Options)
}

// ReadsSource replays pre-existing reads (e.g. preprocessed wetlab FASTQ
// data) instead of simulating; origins are unknown (-1).
type ReadsSource struct {
	Reads []dna.Seq
}

// Simulate implements Simulator by ignoring the strands and replaying the
// stored reads.
func (r ReadsSource) Simulate(context.Context, []dna.Seq) ([]sim.Read, error) {
	out := make([]sim.Read, len(r.Reads))
	for i, s := range r.Reads {
		out[i] = sim.Read{Seq: s, Origin: -1}
	}
	return out, nil
}

// VolumeSimulator is implemented by simulators that can derive an
// independent, deterministic noise stream per archive volume. The streaming
// runtime prefers it over Simulator so that a volume's reads depend only on
// (options, volume id) — never on which other volumes are in flight — which
// is what makes streamed output byte-identical at any worker count and
// in-flight depth. Simulators without it are called through Simulate once
// per volume (still deterministic, but every volume sees the same noise
// pattern).
type VolumeSimulator interface {
	Simulator
	SimulateVolume(ctx context.Context, volume uint32, strands []dna.Seq) ([]sim.Read, error)
}

// VolumeClusterer is the clustering analogue of VolumeSimulator: a
// deterministic per-volume seed derivation so shard clustering is a pure
// function of (options, volume id, reads).
type VolumeClusterer interface {
	Clusterer
	ClusterVolume(ctx context.Context, volume uint32, reads []dna.Seq) (cluster.Result, error)
}

// Per-volume seed streams of the streaming runtime. Each stage derives its
// volume seed under its own tag so the codec, simulator and clusterer
// streams never collide.
const (
	simVolumeSeedTag     = 0x73_696d_766f_6c75 // "simvolu"
	clusterVolumeSeedTag = 0x636c_7573_766f_6c // "clusvol"
)

// SimulateVolume implements VolumeSimulator with a per-volume derived seed.
func (p PoolSimulator) SimulateVolume(ctx context.Context, volume uint32, strands []dna.Seq) ([]sim.Read, error) {
	o := p.Options
	o.Seed = xrand.Derive(o.Seed, simVolumeSeedTag^uint64(volume)).Uint64()
	return sim.SimulatePoolContext(ctx, strands, o)
}

// OptionsClusterer adapts cluster.Options to the Clusterer interface.
type OptionsClusterer struct {
	Options cluster.Options
}

// Cluster implements Clusterer.
func (c OptionsClusterer) Cluster(ctx context.Context, reads []dna.Seq) (cluster.Result, error) {
	return cluster.ClusterContext(ctx, reads, c.Options)
}

// ClusterVolume implements VolumeClusterer with a per-volume derived seed.
func (c OptionsClusterer) ClusterVolume(ctx context.Context, volume uint32, reads []dna.Seq) (cluster.Result, error) {
	o := c.Options
	o.Seed = xrand.Derive(o.Seed, clusterVolumeSeedTag^uint64(volume)).Uint64()
	return cluster.ClusterContext(ctx, reads, o)
}

// ShardedClusterer adapts the distributed clustering variant (§VI-A) to the
// Clusterer interface: independent shards plus a representative-level merge
// round. A shard whose clustering panics degrades to singleton clusters
// instead of failing the stage.
type ShardedClusterer struct {
	Options cluster.Options
	Shards  int
}

// Cluster implements Clusterer.
func (c ShardedClusterer) Cluster(ctx context.Context, reads []dna.Seq) (cluster.Result, error) {
	return cluster.ShardedContext(ctx, reads, c.Shards, c.Options)
}

// ClusterVolume implements VolumeClusterer with a per-volume derived seed.
func (c ShardedClusterer) ClusterVolume(ctx context.Context, volume uint32, reads []dna.Seq) (cluster.Result, error) {
	o := c.Options
	o.Seed = xrand.Derive(o.Seed, clusterVolumeSeedTag^uint64(volume)).Uint64()
	return cluster.ShardedContext(ctx, reads, c.Shards, o)
}

// AlgorithmReconstructor adapts a recon.Algorithm to the Reconstructor
// interface with a worker pool.
type AlgorithmReconstructor struct {
	Algorithm recon.Algorithm
	Workers   int
}

// ReconstructAll implements Reconstructor.
func (a AlgorithmReconstructor) ReconstructAll(ctx context.Context, clusters [][]dna.Seq, targetLen int) ([]dna.Seq, error) {
	return recon.ReconstructAllContext(ctx, clusters, targetLen, a.Algorithm, a.Workers)
}

// Name implements Reconstructor.
func (a AlgorithmReconstructor) Name() string { return a.Algorithm.Name() }

// Pipeline is the end-to-end DNA storage system.
type Pipeline struct {
	Codec         *codec.Codec
	Simulator     Simulator
	Clusterer     Clusterer
	Reconstructor Reconstructor

	// Metrics, when set, is the observability sink: every run (batch,
	// stream, or per-volume) accumulates its per-stage counters into it,
	// and hooks registered on it (obs.Registry.OnEvent) fire at every
	// stage boundary — chaos.PanicHook rides these. Each run records into
	// its own private registry and publishes atomically at the end, so a
	// shared sink stays consistent under concurrent runs. Nil disables
	// accumulation (per-run StageTimes are still reported).
	Metrics *obs.Registry
}

// newRunRegistry creates the private per-run registry: exact local
// attribution during the run, the sink's hooks firing live, and one atomic
// publish into Metrics when the run finishes.
func (p *Pipeline) newRunRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	reg.InheritHooks(p.Metrics)
	return reg
}

// New assembles a pipeline with the default module implementations:
// pool simulation with the given options, q-gram clustering with automatic
// thresholds, and double-sided BMA reconstruction.
func New(c *codec.Codec, simOpts sim.Options, clusterOpts cluster.Options, algo recon.Algorithm) *Pipeline {
	if algo == nil {
		algo = recon.DoubleSidedBMA{}
	}
	return &Pipeline{
		Codec:         c,
		Simulator:     PoolSimulator{Options: simOpts},
		Clusterer:     OptionsClusterer{Options: clusterOpts},
		Reconstructor: AlgorithmReconstructor{Algorithm: algo},
	}
}

// StageTimes is the per-module latency breakdown (Table III). Every stage
// field records *busy* time: the time some worker spent inside that stage,
// summed across volumes when the streaming runtime processes several
// concurrently. Wall records end-to-end elapsed time. In the serial batch
// pipeline Wall ≈ Total(); under streaming the stages of different volumes
// overlap, so Total() deliberately exceeds Wall — use Wall to answer "how
// long did the run take" and Total() to answer "how much stage work was
// done".
type StageTimes struct {
	Encode      time.Duration
	Simulate    time.Duration
	Cluster     time.Duration
	Reconstruct time.Duration
	Decode      time.Duration
	// Wall is the end-to-end elapsed time of the run (0 on results produced
	// before this field existed).
	Wall time.Duration
}

// Total sums the per-stage busy times. Under the streaming runtime this is
// the total stage work performed, not the elapsed time — see Wall.
func (s StageTimes) Total() time.Duration {
	return s.Encode + s.Simulate + s.Cluster + s.Reconstruct + s.Decode
}

// Overlap reports how much stage work ran concurrently: Total()/Wall.
// 1.0 means fully serial execution; values above 1 mean that much stage
// work overlapped (the streaming runtime's pipelining win). 0 when Wall is
// unknown or no stage work was recorded; the result is always finite
// (never NaN/Inf), so it is safe to embed in reports and JSON.
func (s StageTimes) Overlap() float64 {
	total := s.Total()
	if total <= 0 || s.Wall <= 0 {
		return 0
	}
	r := float64(total) / float64(s.Wall)
	if math.IsNaN(r) || math.IsInf(r, 0) {
		return 0
	}
	return r
}

// StageTimesOf folds per-stage obs snapshots into the legacy StageTimes
// view: each pipeline stage's busy nanoseconds land in the matching field,
// non-pipeline stages (demux, archive bookkeeping) are ignored, and Wall
// is left zero for the caller to fill from its own clock. StageTimes is
// thus a thin, API-compatible projection of the obs registry.
func StageTimesOf(snaps []obs.StageSnapshot) StageTimes {
	var t StageTimes
	for _, s := range snaps {
		d := time.Duration(s.BusyNanos)
		switch s.Stage {
		case stageEncode:
			t.Encode += d
		case stageSimulate:
			t.Simulate += d
		case stageCluster:
			t.Cluster += d
		case stageReconstruct:
			t.Reconstruct += d
		case stageDecode:
			t.Decode += d
		}
	}
	return t
}

// add accumulates o's per-stage busy times into s (Wall is left alone: busy
// time sums across concurrent volumes, elapsed time does not).
func (s *StageTimes) add(o StageTimes) {
	s.Encode += o.Encode
	s.Simulate += o.Simulate
	s.Cluster += o.Cluster
	s.Reconstruct += o.Reconstruct
	s.Decode += o.Decode
}

// Result reports everything a Run produced.
type Result struct {
	// Data is the recovered file contents.
	Data []byte
	// Report is the decoder's damage/repair summary.
	Report codec.Report
	// Times is the per-stage latency breakdown.
	Times StageTimes
	// ClusterStats reports the clustering work performed.
	ClusterStats cluster.Stats
	// Strands, Reads and Clusters count the intermediate volumes.
	Strands, Reads, Clusters int
	// Attempts counts the reconstruct+decode attempts performed (1 unless
	// RunOptions.Retries escalated a failed decode).
	Attempts int

	// Intermediates for evaluation (ground truth origins etc.). These are
	// nil unless KeepIntermediates was set on Run's options.
	EncodedStrands []dna.Seq
	SimReads       []sim.Read
	ClusterSets    [][]int
	Reconstructed  []dna.Seq
}

// RunOptions tweaks a pipeline execution.
type RunOptions struct {
	// KeepIntermediates retains encoded strands, reads, cluster membership
	// and reconstructed strands on the Result for evaluation.
	KeepIntermediates bool
	// MinClusterSize drops clusters with fewer reads before reconstruction.
	// A consensus from one or two reads is frequently wrong, and a wrong
	// strand costs the outer code twice what a missing strand does (an
	// error consumes two parity symbols, an erasure one — §IV). Dropping
	// starved clusters converts likely errors into erasures. 0 keeps all.
	MinClusterSize int
	// StageTimeout bounds each stage invocation (simulate, cluster,
	// reconstruct, decode) with its own deadline. Enforcement is
	// cooperative: the built-in worker pools check the deadline between
	// work items, so an overrunning stage aborts promptly with an error
	// matching both ErrCancelled and context.DeadlineExceeded. 0 disables.
	StageTimeout time.Duration
	// Retries is the number of additional reconstruct+decode attempts after
	// a failed or corrupt decode. Each retry escalates MinClusterSize (to at
	// least 2 on the first retry, +1 per further retry), converting likely-
	// wrong consensus strands from starved clusters into erasures, and
	// switches to FallbackReconstructor when one is set. Simulation and
	// clustering are not re-run: retries re-interpret the same sequencing
	// run. 0 disables retrying.
	Retries int
	// FallbackReconstructor replaces the pipeline's Reconstructor on retry
	// attempts — typically the slower NW/POA consensus as a second opinion
	// after a fast BMA first pass. (recon.Adaptive makes that trade per
	// cluster instead of per attempt; a pipeline already running it rarely
	// needs a fallback.) Nil keeps the primary reconstructor.
	FallbackReconstructor Reconstructor
	// BestEffort salvages a partial file instead of failing: when decode
	// still fails after all retries, Run returns every recoverable byte
	// with Report.Partial set and Report.Units mapping the damaged regions,
	// and a nil error. Callers must consult Result.Report before trusting
	// the data. Only when nothing at all can be salvaged does Run still
	// return an error.
	BestEffort bool
}

// Run pushes data through the full pipeline and returns the recovered file
// with per-stage statistics. A non-nil error means the file could not be
// recovered at all; partial corruption is reported via Result.Report.
// Run is RunContext with a background context.
func (p *Pipeline) Run(data []byte, opts RunOptions) (Result, error) {
	return p.RunContext(context.Background(), data, opts)
}

// RunContext is Run under a context: cancelling ctx (or exceeding its
// deadline) aborts the pipeline promptly with an error matching
// ErrCancelled, and RunOptions.StageTimeout adds a per-stage deadline on
// top. A stage that panics on the orchestrator's goroutine is contained and
// surfaced as ErrStagePanic; panics inside the built-in worker pools are
// salvaged even closer to the fault (see sim.SimulatePoolContext,
// recon.ReconstructAllContext and cluster.ClusterContext) and degrade the
// run instead of failing it.
func (p *Pipeline) RunContext(ctx context.Context, data []byte, opts RunOptions) (res Result, rerr error) {
	if p.Codec == nil || p.Simulator == nil || p.Clusterer == nil || p.Reconstructor == nil {
		return res, ErrNotConfigured
	}
	// The run records into a private registry (exact attribution even when
	// several runs share one Pipeline) and publishes into the Metrics sink
	// on every exit path; Result.Times is the StageTimes projection of the
	// same counters.
	reg := p.newRunRegistry()
	runStart := time.Now() //dnalint:allow determinism -- Result.Times telemetry; timings never influence the decoded bytes
	defer func() {
		res.Times = StageTimesOf(reg.Snapshot())
		res.Times.Wall = time.Since(runStart)
		reg.Publish(p.Metrics)
	}()

	// Encode runs in-process with no per-stage deadline; the shared stage
	// runner still gives it pre-cancellation and panic containment.
	enc := reg.Stage(stageEncode)
	enc.AddIn(int64(len(data)))
	var strands []dna.Seq
	err := runStage(ctx, enc, 0, func(context.Context) error {
		var eerr error
		strands, eerr = p.Codec.EncodeFile(data)
		return eerr
	})
	if err != nil {
		return res, err
	}
	enc.AddOut(int64(len(strands)))
	res.Strands = len(strands)

	simSt := reg.Stage(stageSimulate)
	simSt.AddIn(int64(len(strands)))
	var reads []sim.Read
	err = runStage(ctx, simSt, opts.StageTimeout, func(ctx context.Context) error {
		var serr error
		reads, serr = p.Simulator.Simulate(ctx, strands)
		return serr
	})
	if err != nil {
		return res, err
	}
	simSt.AddOut(int64(len(reads)))
	res.Reads = len(reads)

	seqs := make([]dna.Seq, len(reads))
	for i, r := range reads {
		seqs[i] = r.Seq
	}
	cluSt := reg.Stage(stageCluster)
	cluSt.AddIn(int64(len(seqs)))
	var clu cluster.Result
	err = runStage(ctx, cluSt, opts.StageTimeout, func(ctx context.Context) error {
		var cerr error
		clu, cerr = p.Clusterer.Cluster(ctx, seqs)
		return cerr
	})
	if err != nil {
		return res, err
	}
	cluSt.AddOut(int64(len(clu.Clusters)))
	res.Clusters = len(clu.Clusters)
	res.ClusterStats = clu.Stats

	if opts.KeepIntermediates {
		res.EncodedStrands = strands
		res.SimReads = reads
	}

	outcome, err := p.runDecodePhase(ctx, decodeJob{
		strands:   res.Strands,
		targetLen: p.Codec.StrandLen(),
		decode: func(ctx context.Context, recons []dna.Seq, o codec.DecodeOptions) ([]byte, codec.Report, error) {
			return p.Codec.DecodeFileContext(ctx, recons, o)
		},
	}, opts, seqs, clu.Clusters, reg)
	res.Attempts = outcome.Attempts
	res.Data, res.Report = outcome.Data, outcome.Report
	if opts.KeepIntermediates {
		res.ClusterSets, res.Reconstructed = outcome.ClusterSets, outcome.Reconstructed
	}
	return res, err
}

// decodeJob parameterizes the reconstruct+decode phase shared by the batch
// pipeline (whole-archive DecodeFileContext) and the streaming runtime
// (per-volume DecodeVolumeContext).
type decodeJob struct {
	// strands is the expected molecule count, for the all-clusters-dropped
	// damage report.
	strands int
	// targetLen is the reconstruction target strand length.
	targetLen int
	// decode turns reconstructed strands into bytes.
	decode func(ctx context.Context, recons []dna.Seq, o codec.DecodeOptions) ([]byte, codec.Report, error)
}

// decodeOutcome is what the attempt loop produced. ClusterSets and
// Reconstructed describe the winning attempt (callers expose them only when
// intermediates were requested).
type decodeOutcome struct {
	Data          []byte
	Report        codec.Report
	Attempts      int
	ClusterSets   [][]int
	Reconstructed []dna.Seq
}

// runDecodePhase is the reconstruct+decode attempt loop with escalation
// (see RunOptions.Retries): each retry raises the cluster-size floor,
// optionally switches reconstructor, and re-interprets the same clustering.
// Reconstruct and Decode busy times, item counts and retry counters
// accumulate into reg across attempts.
func (p *Pipeline) runDecodePhase(ctx context.Context, job decodeJob, opts RunOptions, seqs []dna.Seq, clusters [][]int, reg *obs.Registry) (decodeOutcome, error) {
	recSt := reg.Stage(stageReconstruct)
	decSt := reg.Stage(stageDecode)
	var out decodeOutcome
	var firstRecons []dna.Seq
	var lastErr error
	var err error
	bestFailed := -1 // fewest failed codewords among data-producing attempts
	for attempt := 0; attempt <= opts.Retries; attempt++ {
		out.Attempts = attempt + 1
		if attempt > 0 {
			// Both stages re-run on a retry; each counts it.
			recSt.AddRetries(1)
			decSt.AddRetries(1)
		}
		minSize, reconstructor := escalation(attempt, opts, p.Reconstructor)
		clusterSeqs, keptClusters := filterClusters(seqs, clusters, minSize)
		if len(clusterSeqs) == 0 {
			// Escalation only drops more clusters; give up immediately with
			// an accurate report: every expected molecule is missing.
			out.Report = codec.Report{MissingColumns: job.strands}
			return out, noUsableClustersErr(minSize, len(clusters))
		}
		recSt.AddIn(int64(len(clusterSeqs)))
		var recons []dna.Seq
		err = runStage(ctx, recSt, opts.StageTimeout, func(ctx context.Context) error {
			var rerr error
			recons, rerr = reconstructor.ReconstructAll(ctx, clusterSeqs, job.targetLen)
			return rerr
		})
		if err != nil {
			return out, err // cancellation or stage panic aborts the run
		}
		recSt.AddOut(int64(len(recons)))
		if attempt == 0 {
			firstRecons = recons
		}

		decSt.AddIn(int64(len(recons)))
		var data []byte
		var report codec.Report
		err = runStage(ctx, decSt, opts.StageTimeout, func(ctx context.Context) error {
			var derr error
			data, report, derr = job.decode(ctx, recons, codec.DecodeOptions{})
			return derr
		})
		if err == nil {
			decSt.AddOut(int64(len(data)))
		}
		if err == nil && report.FailedCodewords == 0 {
			// Fully recovered (modulo repaired damage): done.
			out.Data, out.Report = data, report
			out.ClusterSets, out.Reconstructed = keptClusters, recons
			return out, nil
		}
		if err != nil && isAbort(err) {
			return out, err
		}
		if err == nil && (bestFailed < 0 || report.FailedCodewords < bestFailed) {
			// Data came back but some codewords are beyond repair; keep the
			// least-damaged attempt in case no retry does better.
			bestFailed = report.FailedCodewords
			out.Data, out.Report = data, report
			out.ClusterSets, out.Reconstructed = keptClusters, recons
		}
		if err != nil {
			// The decoder populates its report even on failure; keep the
			// last one so a failed run still explains what it saw.
			if bestFailed < 0 {
				out.Report = report
			}
			lastErr = err
		}
	}

	if bestFailed >= 0 {
		// Legacy best-effort-by-default behaviour: data with failed
		// codewords is returned without an error; Report flags the damage.
		return out, nil
	}
	if opts.BestEffort {
		// Every attempt failed outright: salvage whatever the first
		// (least filtered) reconstruction allows, with the damage map.
		decSt.AddIn(int64(len(firstRecons)))
		var data []byte
		var report codec.Report
		err = runStage(ctx, decSt, opts.StageTimeout, func(ctx context.Context) error {
			var derr error
			data, report, derr = job.decode(ctx, firstRecons, codec.DecodeOptions{BestEffort: true})
			return derr
		})
		if err == nil {
			decSt.AddOut(int64(len(data)))
			out.Data, out.Report = data, report
			return out, nil
		}
		if isAbort(err) {
			return out, err
		}
		lastErr = err
	}
	if opts.Retries > 0 {
		return out, retriesExhaustedErr(out.Attempts, lastErr)
	}
	return out, lastErr
}

// escalation returns the cluster-size floor and reconstructor for the given
// 0-based attempt, per the RunOptions.Retries policy.
func escalation(attempt int, opts RunOptions, primary Reconstructor) (int, Reconstructor) {
	if attempt == 0 {
		return opts.MinClusterSize, primary
	}
	minSize := opts.MinClusterSize
	if minSize < 2 {
		minSize = 2
	}
	minSize += attempt - 1
	rec := primary
	if opts.FallbackReconstructor != nil {
		rec = opts.FallbackReconstructor
	}
	return minSize, rec
}

// filterClusters materializes the clusters with at least minSize reads. The
// floor is clamped to 1: a memberless cluster can only ever reconstruct to
// an erasure, so even "keep all" (MinClusterSize 0, or a negative value)
// drops it here instead of handing the reconstruction pool empty work.
func filterClusters(seqs []dna.Seq, clusters [][]int, minSize int) ([][]dna.Seq, [][]int) {
	if minSize < 1 {
		minSize = 1
	}
	clusterSeqs := make([][]dna.Seq, 0, len(clusters))
	kept := make([][]int, 0, len(clusters))
	for _, members := range clusters {
		if len(members) < minSize {
			continue
		}
		cs := make([]dna.Seq, len(members))
		for j, m := range members {
			cs[j] = seqs[m]
		}
		clusterSeqs = append(clusterSeqs, cs)
		kept = append(kept, members)
	}
	return clusterSeqs, kept
}

// Evaluation scores a pipeline run against its own ground truth.
type Evaluation struct {
	// ClusteringAccuracy is the Rashtchian accuracy at the given gamma.
	ClusteringAccuracy float64
	// ClusteringPurity is the fraction of reads in majority-origin clusters.
	ClusteringPurity float64
	// PerfectStrands counts reconstructions identical to their source
	// strand (matched by decoded index).
	PerfectStrands int
	// StrandsTotal is the number of encoded strands.
	StrandsTotal int
}

// Evaluate computes ground-truth quality metrics from a Result that was run
// with KeepIntermediates. It returns false when the intermediates are
// missing or carry no origin information (e.g. a ReadsSource pipeline).
func (p *Pipeline) Evaluate(res Result, gamma float64) (Evaluation, bool) {
	if res.SimReads == nil || res.ClusterSets == nil || res.Reconstructed == nil {
		return Evaluation{}, false
	}
	origins := make([]int, len(res.SimReads))
	for i, r := range res.SimReads {
		if r.Origin < 0 {
			return Evaluation{}, false
		}
		origins[i] = r.Origin
	}
	ev := Evaluation{
		ClusteringAccuracy: cluster.Accuracy(res.ClusterSets, origins, gamma, res.Strands),
		ClusteringPurity:   cluster.Purity(res.ClusterSets, origins),
		StrandsTotal:       res.Strands,
	}
	// Match reconstructions to source strands via the decoded index.
	for _, rec := range res.Reconstructed {
		idx, _, err := p.Codec.ParseStrand(rec)
		if err != nil || idx >= uint64(len(res.EncodedStrands)) {
			continue
		}
		if rec.Equal(res.EncodedStrands[idx]) {
			ev.PerfectStrands++
		}
	}
	return ev, true
}
