package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"dnastore"
)

// span is one call across a layer boundary, recorded from outside the
// program. Facade calls have Parent 0; stage calls name the facade call
// that was open when they ran.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Op     int    `json:"op"`     // operation number within the benchmark run
	Volume int    `json:"volume"` // -1 when the call is not tied to one volume
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	In     int    `json:"items_in"`
	Out    int    `json:"items_out"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Span names of the stage adapters, and the obs stage each must agree with.
const (
	spanSimulate    = "sim.Simulate"
	spanCluster     = "cluster.Cluster"
	spanReconstruct = "recon.ReconstructAll"
)

var agreement = []struct{ span, stage string }{
	{spanSimulate, "simulate"},
	{spanCluster, "cluster"},
	{spanReconstruct, "reconstruct"},
}

// tracer records the spans of one traced operation, and keeps what the
// stages were given and returned for the quality metrics. A nil *tracer
// records nothing, so untraced operations run the same code.
type tracer struct {
	epoch time.Time
	op    int
	reg   *dnastore.MetricsRegistry

	mu     sync.Mutex
	spans  []span
	parent int
	sims   []simCall
	clus   []clusterCall
	recs   []reconCall
}

type simCall struct {
	strands []dnastore.Seq
	reads   []dnastore.SimRead
}

type clusterCall struct {
	reads []dnastore.Seq
	res   dnastore.ClusterResult
}

type reconCall struct {
	clusters [][]dnastore.Seq
	out      []dnastore.Seq
}

func newTracer(epoch time.Time, op int) *tracer {
	return &tracer{epoch: epoch, op: op, reg: dnastore.NewMetricsRegistry()}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// instrument hands the pipeline a fresh metrics registry and wraps its
// three swappable stages in span-recording adapters.
func (t *tracer) instrument(p *dnastore.Pipeline) {
	if t == nil {
		return
	}
	p.Metrics = t.reg
	p.Simulator = tracedSimulator{inner: p.Simulator.(dnastore.VolumeSimulator), t: t}
	p.Clusterer = tracedClusterer{inner: p.Clusterer.(dnastore.VolumeClusterer), t: t}
	p.Reconstructor = tracedReconstructor{inner: p.Reconstructor, t: t}
}

// open starts a facade span and makes it the parent of stage spans until
// close.
func (t *tracer) open(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Op: t.op, Volume: -1, Start: t.now()})
	t.parent = id
	return id
}

func (t *tracer) close(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.now()
	t.parent = 0
}

func (t *tracer) stage(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID, s.Parent, s.Op = len(t.spans)+1, t.parent, t.op
	t.spans = append(t.spans, s)
}

type tracedSimulator struct {
	inner dnastore.VolumeSimulator
	t     *tracer
}

func (a tracedSimulator) Simulate(ctx context.Context, strands []dnastore.Seq) ([]dnastore.SimRead, error) {
	return a.record(-1, strands, func() ([]dnastore.SimRead, error) { return a.inner.Simulate(ctx, strands) })
}

func (a tracedSimulator) SimulateVolume(ctx context.Context, volume uint32, strands []dnastore.Seq) ([]dnastore.SimRead, error) {
	return a.record(int(volume), strands, func() ([]dnastore.SimRead, error) { return a.inner.SimulateVolume(ctx, volume, strands) })
}

func (a tracedSimulator) record(volume int, strands []dnastore.Seq, call func() ([]dnastore.SimRead, error)) ([]dnastore.SimRead, error) {
	start := a.t.now()
	reads, err := call()
	a.t.stage(span{Name: spanSimulate, Volume: volume, Start: start, End: a.t.now(), In: len(strands), Out: len(reads)})
	a.t.mu.Lock()
	a.t.sims = append(a.t.sims, simCall{strands: strands, reads: reads})
	a.t.mu.Unlock()
	return reads, err
}

type tracedClusterer struct {
	inner dnastore.VolumeClusterer
	t     *tracer
}

func (a tracedClusterer) Cluster(ctx context.Context, reads []dnastore.Seq) (dnastore.ClusterResult, error) {
	return a.record(-1, reads, func() (dnastore.ClusterResult, error) { return a.inner.Cluster(ctx, reads) })
}

func (a tracedClusterer) ClusterVolume(ctx context.Context, volume uint32, reads []dnastore.Seq) (dnastore.ClusterResult, error) {
	return a.record(int(volume), reads, func() (dnastore.ClusterResult, error) { return a.inner.ClusterVolume(ctx, volume, reads) })
}

func (a tracedClusterer) record(volume int, reads []dnastore.Seq, call func() (dnastore.ClusterResult, error)) (dnastore.ClusterResult, error) {
	start := a.t.now()
	res, err := call()
	a.t.stage(span{Name: spanCluster, Volume: volume, Start: start, End: a.t.now(), In: len(reads), Out: len(res.Clusters)})
	a.t.mu.Lock()
	a.t.clus = append(a.t.clus, clusterCall{reads: reads, res: res})
	a.t.mu.Unlock()
	return res, err
}

type tracedReconstructor struct {
	inner dnastore.Reconstructor
	t     *tracer
}

func (a tracedReconstructor) Name() string { return a.inner.Name() }

func (a tracedReconstructor) ReconstructAll(ctx context.Context, clusters [][]dnastore.Seq, targetLen int) ([]dnastore.Seq, error) {
	start := a.t.now()
	out, err := a.inner.ReconstructAll(ctx, clusters, targetLen)
	a.t.stage(span{Name: spanReconstruct, Volume: -1, Start: start, End: a.t.now(), In: len(clusters), Out: len(out)})
	a.t.mu.Lock()
	a.t.recs = append(a.t.recs, reconCall{clusters: clusters, out: out})
	a.t.mu.Unlock()
	return out, err
}

// spanTotals sums the calls, items and durations of the spans named name.
func (t *tracer) spanTotals(name string) (calls, in, out int, busy time.Duration) {
	for _, s := range t.spans {
		if s.Name == name {
			calls++
			in += s.In
			out += s.Out
			busy += s.dur()
		}
	}
	return calls, in, out, busy
}

// selfTime is the duration of the facade spans named name minus their
// children's and minus extra, the busy time of stages the benchmark cannot
// wrap (encode, decode). It is used on the batch Run only, whose stages run
// one after another, so children never overlap.
func (t *tracer) selfTime(name string, extra time.Duration) time.Duration {
	self := -extra
	for _, f := range t.spans {
		if f.Name != name {
			continue
		}
		self += f.dur()
		for _, s := range t.spans {
			if s.Parent == f.ID {
				self -= s.dur()
			}
		}
	}
	return self
}

// agreementTolerance bounds how far a stage's obs busy time may exceed the
// summed spans of the adapter it calls: the stage runner's own bookkeeping
// and the adapter's capture, a millisecond per call, plus 2 % for timer
// and scheduling noise.
func agreementTolerance(calls int64, busy time.Duration) time.Duration {
	return time.Duration(calls)*time.Millisecond + busy/50
}

// agree checks the spans against the program's own obs snapshot: per stage,
// calls and items in and out must match exactly and busy time within
// agreementTolerance. It returns the problems found and the largest busy
// gap as a share of the stage's obs busy time.
func (t *tracer) agree() (problems []string, worstGap float64) {
	snaps := map[string]dnastore.MetricsSnapshot{}
	for _, s := range t.reg.Snapshot() {
		snaps[s.Stage] = s
	}
	for _, a := range agreement {
		o := snaps[a.stage]
		calls, in, out, busy := t.spanTotals(a.span)
		if o.Calls != int64(calls) || o.ItemsIn != int64(in) || o.ItemsOut != int64(out) {
			problems = append(problems, fmt.Sprintf("%s: obs calls/in/out %d/%d/%d, spans %d/%d/%d",
				a.stage, o.Calls, o.ItemsIn, o.ItemsOut, calls, in, out))
		}
		gap := time.Duration(o.BusyNanos) - busy
		if gap < 0 || gap > agreementTolerance(o.Calls, time.Duration(o.BusyNanos)) {
			problems = append(problems, fmt.Sprintf("%s: obs busy %v, spans %v", a.stage, time.Duration(o.BusyNanos), busy))
		}
		if o.BusyNanos > 0 {
			worstGap = max(worstGap, math.Abs(float64(gap))/float64(o.BusyNanos))
		}
	}
	return problems, worstGap
}

// seqKey hashes a sequence (FNV-1a) to find a read's origin by content:
// stages hand reads on by value (the archive worker re-reads them from
// disk), so identity cannot be tracked by reference.
func seqKey(s dnastore.Seq) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range s {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// quality derives cluster accuracy (γ = 0.9), exact-consensus share and
// clusters per strand from the captured stage inputs and outputs.
func (t *tracer) quality() (accuracy, exact, clustersPerStrand float64) {
	origin := map[uint64]int{}
	var strands []dnastore.Seq
	for _, c := range t.sims {
		base := len(strands)
		strands = append(strands, c.strands...)
		for _, r := range c.reads {
			origin[seqKey(r.Seq)] = base + r.Origin
		}
	}
	originOf := func(s dnastore.Seq) int {
		if o, ok := origin[seqKey(s)]; ok {
			return o
		}
		return -1
	}

	var recovered, truth, clusters float64
	for _, c := range t.clus {
		origins := make([]int, len(c.reads))
		distinct := map[int]bool{}
		for i, r := range c.reads {
			origins[i] = originOf(r)
			distinct[origins[i]] = true
		}
		acc := dnastore.ClusteringAccuracy(c.res.Clusters, origins, 0.9, 0)
		recovered += acc * float64(len(distinct))
		truth += float64(len(distinct))
		clusters += float64(len(c.res.Clusters))
	}

	var hits, consensus float64
	for _, c := range t.recs {
		for i, out := range c.out {
			if i >= len(c.clusters) || out == nil {
				continue
			}
			consensus++
			votes := map[int]int{}
			best, bestN := -1, 0
			for _, r := range c.clusters[i] {
				o := originOf(r)
				votes[o]++
				if votes[o] > bestN || (votes[o] == bestN && o < best) {
					best, bestN = o, votes[o]
				}
			}
			if best >= 0 && best < len(strands) && out.Equal(strands[best]) {
				hits++
			}
		}
	}
	return ratio(recovered, truth), ratio(hits, consensus), ratio(clusters, float64(len(strands)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layers derives every per-layer metric of one traced operation. A metric
// of a layer the workload does not run reads 0.
func (t *tracer) layers(k kind, o observation) map[string]float64 {
	snaps := map[string]dnastore.MetricsSnapshot{}
	for _, s := range t.reg.Snapshot() {
		snaps[s.Stage] = s
	}
	encode := time.Duration(snaps["encode"].BusyNanos)
	decode := time.Duration(snaps["decode"].BusyNanos)
	_, _, simOut, simBusy := t.spanTotals(spanSimulate)
	_, cluIn, _, cluBusy := t.spanTotals(spanCluster)
	_, recIn, _, recBusy := t.spanTotals(spanReconstruct)
	var st dnastore.ClusterStats
	for _, c := range t.clus {
		st.Add(c.res.Stats)
	}
	accuracy, exact, perStrand := t.quality()
	// CheapMerges counts merges proposed on signature distance alone, some
	// of which find the pair already joined, so Merges−CheapMerges is a
	// lower bound on edit-confirmed merges (clamped at 0).
	confirmed := max(0, st.Merges-st.CheapMerges)

	l := map[string]float64{
		"codec.encode_s":                     encode.Seconds(),
		"codec.decode_s":                     decode.Seconds(),
		"codec.unparsable_strands":           float64(o.report.UnparsableStrand),
		"codec.missing_columns":              float64(o.report.MissingColumns),
		"codec.duplicate_index":              float64(o.report.DuplicateIndex),
		"codec.rs_erased_symbols":            float64(o.report.ErasedSymbols),
		"codec.rs_corrected_symbols":         float64(o.report.CorrectedSymbols),
		"sim.simulate_s":                     simBusy.Seconds(),
		"sim.reads_per_s":                    ratio(float64(simOut), simBusy.Seconds()),
		"cluster.cluster_s":                  cluBusy.Seconds(),
		"cluster.reads_per_s":                ratio(float64(cluIn), cluBusy.Seconds()),
		"cluster.signature_s":                st.SignatureTime.Seconds(),
		"cluster.edit_calls":                 float64(st.EditDistanceCalls),
		"cluster.edit_calls_per_read":        ratio(float64(st.EditDistanceCalls), float64(cluIn)),
		"cluster.rounds":                     float64(st.Rounds),
		"cluster.merges":                     float64(st.Merges),
		"cluster.cheap_merge_share":          ratio(float64(st.CheapMerges), float64(st.Merges)),
		"cluster.confirm_yield":              ratio(float64(confirmed), float64(st.EditDistanceCalls)),
		"cluster.theta_low":                  float64(st.ThetaLow),
		"cluster.theta_high":                 float64(st.ThetaHigh),
		"cluster.clusters_per_strand":        perStrand,
		"cluster.accuracy":                   accuracy,
		"recon.reconstruct_s":                recBusy.Seconds(),
		"recon.clusters_per_s":               ratio(float64(recIn), recBusy.Seconds()),
		"recon.exact_fraction":               exact,
		"core.overhead_s":                    0,
		"stream.demux_spill_fraction":        ratio(float64(snaps["demux"].Spills), float64(snaps["simulate"].ItemsOut)),
		"stream.overlap":                     0,
		"stream.volume_latency_s":            0,
		"archive.build_io_s":                 0,
		"archive.commit_overhead_s":          0,
		"archive.audit_s":                    0,
		"archive.stored_bytes_per_user_byte": 0,
		"archive.redone":                     0,
		"archive.takeovers":                  0,
	}
	switch k {
	case batchKind:
		l["core.overhead_s"] = t.selfTime("core.Run", encode+decode).Seconds()
	case streamKind:
		l["stream.overlap"] = o.times.Overlap()
		lat := make([]float64, len(o.volLatency))
		for i, d := range o.volLatency {
			lat[i] = d.Seconds()
		}
		l["stream.volume_latency_s"] = median(lat)
	case archiveKind:
		l["archive.build_io_s"] = (o.build - encode - simBusy).Seconds()
		l["archive.commit_overhead_s"] = (o.readPath - cluBusy - recBusy - decode).Seconds()
		_, _, _, audit := t.spanTotals("archive.Audit")
		l["archive.audit_s"] = audit.Seconds()
		l["archive.stored_bytes_per_user_byte"] = o.storedPerByte
		l["archive.redone"] = float64(o.worker.Redone)
		l["archive.takeovers"] = float64(o.worker.Takeovers)
	}
	return l
}
