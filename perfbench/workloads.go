package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dnastore"
)

// kind selects which facade entry points a workload drives.
type kind int

const (
	batchKind   kind = iota // Pipeline.Run
	streamKind              // Pipeline.RunStream
	archiveKind             // BuildArchive, RunArchiveWorker, AuditArchive
)

// workload is one named operating point. Every workload uses the CLI's
// default codec geometry; the channel, coverage, reconstruction algorithm
// and input size are what set them apart.
type workload struct {
	name        string
	kind        kind
	inputBytes  int
	volumeBytes int     // stream and archive: archive bytes per volume
	errorRate   float64 // CalibratedIID aggregate per-base error rate
	coverage    int     // FixedCoverage reads per strand
	algo        func() dnastore.Reconstruction
}

// The four operating points. Why each exists is recorded in
// BENCHMARK.json and README.md; in short: t3-batch is the paper's Table III
// point and the CLI default (clustering dominates), nw-batch is the
// historical stage-bench point with POA/NW reconstruction (reconstruction
// dominates), t3-stream is the only path through demux, ticket
// backpressure and the in-order writer, and archive-lownoise is the only
// durable write/read path and the low-noise, low-coverage clustering
// regime.
var workloads = []workload{
	{name: "t3-batch", kind: batchKind, inputBytes: 256 << 10, errorRate: 0.06, coverage: 10, algo: dbma},
	{name: "nw-batch", kind: batchKind, inputBytes: 256 << 10, errorRate: 0.03, coverage: 8, algo: nw},
	{name: "t3-stream", kind: streamKind, inputBytes: 512 << 10, volumeBytes: 128 << 10, errorRate: 0.06, coverage: 10, algo: dbma},
	{name: "archive-lownoise", kind: archiveKind, inputBytes: 1 << 20, volumeBytes: 256 << 10, errorRate: 0.001, coverage: 3, algo: dbma},
}

func dbma() dnastore.Reconstruction { return dnastore.DoubleSidedBMAReconstruction{} }
func nw() dnastore.Reconstruction   { return dnastore.NWReconstruction{} }

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// codecParams is the CLI's default geometry: 150 molecules per unit, 120 of
// them data, 30 payload bytes each, 8 index bases, scrambler seed 42.
var codecParams = dnastore.CodecParams{N: 150, K: 120, PayloadBytes: 30, IndexBases: 8, Seed: 42}

// inputs is everything an operation derives from the workload seed: the
// file bytes and the simulator and clusterer seeds. The program sees
// nothing else.
type inputs struct {
	data                 []byte
	simSeed, clusterSeed uint64
}

// makeInputs derives the inputs of operation op of a run with the given
// seed: the same (seed, op) always gives the same inputs.
func makeInputs(w workload, seed uint64, op int) inputs {
	rng := rand.New(rand.NewPCG(seed, uint64(op)))
	in := inputs{simSeed: rng.Uint64(), clusterSeed: rng.Uint64()}
	in.data = make([]byte, w.inputBytes)
	var word [8]byte
	for i := 0; i < len(in.data); i += 8 {
		binary.LittleEndian.PutUint64(word[:], rng.Uint64())
		copy(in.data[i:], word[:])
	}
	return in
}

// setupRepeats is how many times each operation repeats its set-up; the
// set-up is microseconds long, so one sample per operation would be noise.
const setupRepeats = 32

// setup builds the codec and pipeline the operation runs, setupRepeats
// times, and returns the last pipeline and every set-up duration. The
// archive workload needs no directory preparation: BuildArchive creates
// its directory.
func (w workload) setup(in inputs) (*dnastore.Pipeline, []float64, error) {
	times := make([]float64, 0, setupRepeats)
	var p *dnastore.Pipeline
	for range setupRepeats {
		t0 := time.Now()
		cdc, err := dnastore.NewCodec(codecParams)
		if err != nil {
			return nil, nil, fmt.Errorf("new codec: %w", err)
		}
		p = dnastore.NewPipeline(cdc,
			dnastore.SimOptions{Channel: dnastore.CalibratedIID(w.errorRate), Coverage: dnastore.FixedCoverage(w.coverage), Seed: in.simSeed},
			dnastore.ClusterOptions{Seed: in.clusterSeed},
			w.algo())
		times = append(times, time.Since(t0).Seconds())
	}
	return p, times, nil
}

// opResult is one operation's measurements and verdict.
type opResult struct {
	wall      time.Duration // the workload's facade calls, end to end
	write     time.Duration // write path: Build wall, or encode+simulate busy
	read      time.Duration // read path: worker+audit wall, or cluster+reconstruct+decode busy
	firstByte time.Duration // call → first recovered byte available to the caller
	cpu       time.Duration // process user+system CPU over the facade calls
	peakHeap  uint64        // peak live heap over the facade calls
	report    dnastore.DecodeReport

	// attempted counts operations: 1 for a batch run, one per volume for
	// stream and archive. failed counts those not recovered byte-exact.
	attempted, failed int
	failures          []string

	layers map[string]float64 // traced operations only
}

// meter brackets the facade calls of one operation: CPU time and the peak
// live heap.
type meter struct {
	heap *heapSampler
	cpu0 time.Duration
}

func startMeter() meter {
	h := startHeapSampler()
	return meter{heap: h, cpu0: cpuTime()}
}

func (m meter) stop(r *opResult) {
	r.cpu = cpuTime() - m.cpu0
	r.peakHeap = m.heap.finish()
}

// runOp runs one operation of w. tr is nil for an untraced operation.
// For the archive workload, dir holds the archive and the restored file.
func (w workload) runOp(ctx context.Context, p *dnastore.Pipeline, in inputs, dir string, tr *tracer) (opResult, error) {
	tr.instrument(p)
	var r opResult
	var obsv observation
	var err error
	switch w.kind {
	case batchKind:
		r, obsv = runBatch(p, in, tr)
	case streamKind:
		r, obsv = runStream(ctx, p, w, in, tr)
	case archiveKind:
		r, obsv, err = runArchive(ctx, p, w, in, dir, tr)
	}
	if err != nil {
		return r, err
	}
	r.report = obsv.report
	if tr != nil {
		r.layers = tr.layers(w.kind, obsv)
	}
	return r, nil
}

// observation carries what an operation saw beyond its timings, for the
// per-layer metrics of a traced operation.
type observation struct {
	report        dnastore.DecodeReport // summed over the operation's decodes
	times         dnastore.StageTimes   // batch and stream: the program's own stage view
	volLatency    []time.Duration       // stream: reader hand-off → writer arrival, per volume
	storedPerByte float64               // archive: bytes on disk after BuildArchive per input byte
	worker        dnastore.ArchiveWorkerResult
	build         time.Duration // archive: BuildArchive wall
	readPath      time.Duration // archive: RunArchiveWorker wall
}

func addReport(sum *dnastore.DecodeReport, r dnastore.DecodeReport) {
	sum.Strands += r.Strands
	sum.UnparsableStrand += r.UnparsableStrand
	sum.DuplicateIndex += r.DuplicateIndex
	sum.StrayIndex += r.StrayIndex
	sum.MissingColumns += r.MissingColumns
	sum.BadLengthColumns += r.BadLengthColumns
	sum.ErasedSymbols += r.ErasedSymbols
	sum.CorrectedSymbols += r.CorrectedSymbols
	sum.FailedCodewords += r.FailedCodewords
}

func runBatch(p *dnastore.Pipeline, in inputs, tr *tracer) (opResult, observation) {
	r := opResult{attempted: 1}
	m := startMeter()
	span := tr.open("core.Run")
	t0 := time.Now()
	res, err := p.Run(in.data, dnastore.RunOptions{})
	r.wall = time.Since(t0)
	tr.close(span)
	m.stop(&r)

	r.firstByte = r.wall // a batch run hands over every byte when it returns
	r.write = res.Times.Encode + res.Times.Simulate
	r.read = res.Times.Cluster + res.Times.Reconstruct + res.Times.Decode
	if err := verifyBatch(in.data, res.Data, err); err != nil {
		r.failed, r.failures = 1, []string{err.Error()}
	}
	return r, observation{report: res.Report, times: res.Times}
}

// verifyBatch is the batch correctness gate: the run succeeded and the
// recovered bytes equal the input.
func verifyBatch(input, output []byte, runErr error) error {
	if runErr != nil {
		return fmt.Errorf("run: %w", runErr)
	}
	if !bytes.Equal(input, output) {
		return fmt.Errorf("recovered %d bytes that differ from the %d input bytes", len(output), len(input))
	}
	return nil
}

func runStream(ctx context.Context, p *dnastore.Pipeline, w workload, in inputs, tr *tracer) (opResult, observation) {
	src := &volumeReader{r: bytes.NewReader(in.data), volumeBytes: w.volumeBytes}
	dst := &volumeWriter{buf: make([]byte, 0, len(in.data)), volumeBytes: w.volumeBytes, total: len(in.data)}
	var r opResult
	m := startMeter()
	span := tr.open("core.RunStream")
	t0 := time.Now()
	src.t0, dst.t0 = t0, t0
	res, err := p.RunStream(ctx, src, dst, dnastore.StreamOptions{VolumeBytes: w.volumeBytes})
	r.wall = time.Since(t0)
	tr.close(span)
	m.stop(&r)

	r.firstByte = dst.first
	r.write = res.Times.Encode + res.Times.Simulate
	r.read = res.Times.Cluster + res.Times.Reconstruct + res.Times.Decode
	obsv := observation{times: res.Times, report: volumeReports(res.Volumes)}
	for k := range min(len(src.handoff), len(dst.arrive)) {
		obsv.volLatency = append(obsv.volLatency, dst.arrive[k]-src.handoff[k])
	}
	r.attempted, r.failures = verifyVolumes(in.data, dst.buf, w.volumeBytes, streamOutcomes(res.Volumes), err)
	r.failed = len(r.failures)
	return r, obsv
}

func volumeReports(vols []dnastore.VolumeResult) dnastore.DecodeReport {
	var sum dnastore.DecodeReport
	for _, v := range vols {
		addReport(&sum, v.Report)
	}
	return sum
}

// streamOutcomes maps volume id → whether RunStream reported it decoded.
func streamOutcomes(vols []dnastore.VolumeResult) map[uint32]bool {
	out := make(map[uint32]bool, len(vols))
	for _, v := range vols {
		out[v.ID] = v.Outcome == dnastore.OutcomeDecoded && v.Err == nil
	}
	return out
}

// verifyVolumes is the per-volume correctness gate shared by the stream and
// archive workloads: a volume counts as recovered only when the program
// reported it clean (decoded[id], absent means not delivered) and its
// region of the output equals the input. A run-level error fails every
// volume. It returns the number of volumes and one line per failed volume.
func verifyVolumes(input, output []byte, volumeBytes int, decoded map[uint32]bool, runErr error) (int, []string) {
	volumes := max(1, (len(input)+volumeBytes-1)/volumeBytes)
	var failures []string
	for v := range volumes {
		lo, hi := v*volumeBytes, min((v+1)*volumeBytes, len(input))
		switch {
		case runErr != nil:
			failures = append(failures, fmt.Sprintf("volume %d: run: %v", v, runErr))
		case !decoded[uint32(v)]:
			failures = append(failures, fmt.Sprintf("volume %d: not reported decoded", v))
		case hi > len(output) || !bytes.Equal(input[lo:hi], output[lo:hi]):
			failures = append(failures, fmt.Sprintf("volume %d: recovered bytes differ from the input", v))
		}
	}
	if len(failures) == 0 && len(output) != len(input) {
		failures = append(failures, fmt.Sprintf("output is %d bytes, input %d", len(output), len(input)))
	}
	return volumes, failures
}

// volumeReader feeds RunStream and records when each volume's first byte is
// handed over.
type volumeReader struct {
	r           *bytes.Reader
	volumeBytes int
	off         int
	t0          time.Time
	handoff     []time.Duration
}

func (v *volumeReader) Read(b []byte) (int, error) {
	n, err := v.r.Read(b)
	now := time.Since(v.t0)
	for next := len(v.handoff) * v.volumeBytes; next < v.off+n; next += v.volumeBytes {
		v.handoff = append(v.handoff, now)
	}
	v.off += n
	return n, err
}

// volumeWriter collects RunStream's output and records when the first byte
// and each complete volume arrive.
type volumeWriter struct {
	buf         []byte
	volumeBytes int
	total       int
	t0          time.Time
	first       time.Duration
	arrive      []time.Duration
}

func (v *volumeWriter) Write(b []byte) (int, error) {
	now := time.Since(v.t0)
	if len(b) > 0 && len(v.buf) == 0 {
		v.first = now
	}
	v.buf = append(v.buf, b...)
	for {
		end := min((len(v.arrive)+1)*v.volumeBytes, v.total)
		if end > len(v.buf) || len(v.arrive)*v.volumeBytes >= v.total {
			break
		}
		v.arrive = append(v.arrive, now)
	}
	return len(b), nil
}

func runArchive(ctx context.Context, p *dnastore.Pipeline, w workload, in inputs, dir string, tr *tracer) (opResult, observation, error) {
	archiveDir := filepath.Join(dir, "archive")
	outPath := filepath.Join(dir, "restored.bin")
	// The archive worker returns no decode report, so the consensus strands
	// it decodes are kept and decoded again after the timed calls.
	consensus := &reconCapture{Reconstructor: p.Reconstructor}
	p.Reconstructor = consensus
	var obsv observation
	var r opResult
	var t1 time.Time
	var first atomic.Int64 // RunArchiveWorker call → first volume's output durable
	hooks := dnastore.ArchiveHooks{OutputWritten: func(uint32) {
		first.CompareAndSwap(0, int64(time.Since(t1)))
	}}

	m := startMeter()
	span := tr.open("archive.Build")
	t0 := time.Now()
	_, buildErr := dnastore.BuildArchive(ctx, p, bytes.NewReader(in.data), archiveDir, dnastore.StreamOptions{VolumeBytes: w.volumeBytes})
	r.write = time.Since(t0)
	tr.close(span)
	if tr != nil && buildErr == nil {
		stored, err := dirBytes(archiveDir)
		if err != nil {
			return r, obsv, err
		}
		obsv.storedPerByte = float64(stored) / float64(len(in.data))
	}
	var wres dnastore.ArchiveWorkerResult
	var audit *dnastore.ArchiveAuditReport
	workErr, auditErr := errors.New("not run: build failed"), errors.New("not run: build failed")
	t1 = time.Now()
	if buildErr == nil {
		span = tr.open("archive.RunWorker")
		wres, workErr = dnastore.RunArchiveWorker(ctx, p, archiveDir, outPath, dnastore.ArchiveWorkerOptions{Hooks: hooks})
		obsv.readPath = time.Since(t1)
		tr.close(span)
		span = tr.open("archive.Audit")
		audit, auditErr = dnastore.AuditArchive(archiveDir, outPath)
		tr.close(span)
	}
	r.read = time.Since(t1)
	r.wall = r.write + r.read
	m.stop(&r)

	r.firstByte = r.read
	if f := first.Load(); f != 0 {
		r.firstByte = time.Duration(f)
	}
	obsv.build, obsv.worker = r.write, wres

	output, readErr := os.ReadFile(outPath)
	runErr := errors.Join(buildErr, workErr, auditErr)
	if readErr != nil && runErr == nil {
		runErr = readErr
	}
	r.attempted, r.failures = verifyVolumes(in.data, output, w.volumeBytes, auditOutcomes(audit), runErr)
	r.failed = len(r.failures)
	if runErr == nil {
		rep, err := consensus.report(ctx, p.Codec, w.volumeBytes)
		if err != nil {
			return r, obsv, fmt.Errorf("re-decode of captured consensus: %w", err)
		}
		obsv.report = rep
	}
	return r, obsv, nil
}

// auditOutcomes maps volume id → whether AuditArchive verified it as a
// clean decode whose output bytes match the manifest.
func auditOutcomes(a *dnastore.ArchiveAuditReport) map[uint32]bool {
	out := map[uint32]bool{}
	if a == nil {
		return out
	}
	for _, v := range a.Volumes {
		out[v.ID] = v.Status.String() == "ok" && v.Outcome == dnastore.OutcomeDecoded
	}
	return out
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// reconCapture keeps the consensus strands of every ReconstructAll call.
type reconCapture struct {
	dnastore.Reconstructor
	mu    sync.Mutex
	calls [][]dnastore.Seq
}

func (c *reconCapture) ReconstructAll(ctx context.Context, clusters [][]dnastore.Seq, targetLen int) ([]dnastore.Seq, error) {
	out, err := c.Reconstructor.ReconstructAll(ctx, clusters, targetLen)
	c.mu.Lock()
	c.calls = append(c.calls, out)
	c.mu.Unlock()
	return out, err
}

// report decodes every captured consensus set again, as the volume its
// strands' index prefixes name, and sums the decode reports. Decoding does
// not modify its input, so this repeats the worker's decode exactly.
func (c *reconCapture) report(ctx context.Context, cdc *dnastore.Codec, volumeBytes int) (dnastore.DecodeReport, error) {
	var sum dnastore.DecodeReport
	capacity := cdc.VolumeCapacity(volumeBytes)
	for _, recons := range c.calls {
		votes := map[uint32]int{}
		for _, s := range recons {
			if id, ok := cdc.ReadVolumeID(s, capacity); ok {
				votes[id]++
			}
		}
		id, best := uint32(0), -1
		for v, n := range votes {
			if n > best || (n == best && v < id) {
				id, best = v, n
			}
		}
		_, _, rep, err := cdc.DecodeVolumeContext(ctx, id, volumeBytes, recons, dnastore.DecodeOptions{})
		if err != nil {
			return sum, fmt.Errorf("volume %d: %w", id, err)
		}
		addReport(&sum, rep)
	}
	return sum, nil
}
