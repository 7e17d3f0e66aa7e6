// Command perfbench is the repository's benchmark: it drives the public
// dnastore facade at four named operating points, byte-verifies every
// output, and prints each metric by name and unit. The last line of its
// output is one JSON object:
//
//	{"correct": true, "attempted": 6, "failed": 0, "metrics": {"setup_s": {"value": 2.1e-06, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end metrics of untraced
// operations; with --trace 1 they are the per-layer metrics of traced
// operations (alternating with untraced ones, for the tracing overhead).
// See README.md for what each metric means and which layer moves it.
//
// Run from the repository root (run.sh builds the driver first):
//
//	bash perfbench/run.sh --workload t3-batch --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// defaultSeed is the workload seed of record; heldOutSeed is reserved for
// confirming a claimed gain on inputs it was not tuned on.
const (
	defaultSeed = 1
	heldOutSeed = 20240917
)

// buildDir holds everything a run writes, relative to the repository root.
const buildDir = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, fmt.Sprintf("workload seed: input bytes and simulator/clusterer seeds derive from it (held-out seed: %d)", heldOutSeed))
	seconds := fs.Float64("seconds", 25, "how long to keep starting operations")
	trace := fs.Int("trace", 0, "0: end-to-end metrics of untraced operations; 1: per-layer metrics of traced operations")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %s, --trace 0 or 1, --seconds >= 0\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	// One process on at most two cores: the operating points were measured
	// on a 2-vCPU machine, and the stream workload's two concurrent volume
	// workers are part of what it measures.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	work, err := os.MkdirTemp(buildDir, "work-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(work) //dnalint:allow errflow -- scratch space; a failed cleanup cannot change the result

	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, workDir: work}
	res, err := measure(context.Background(), w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 2
	}
	if cfg.trace {
		path := filepath.Join(buildDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, cfg.seed))
		if err := writeTrace(path, res.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
		res.notes = append(res.notes, "spans written to "+path)
	}
	if err := res.print(stdout, w, cfg); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if !res.correct() {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

type config struct {
	seed    uint64
	seconds float64
	trace   bool
	workDir string // scratch space for archives
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, from untraced
// operations (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"roundtrip_mib_s", "MiB/s"},
	{"write_mib_s", "MiB/s"},
	{"read_mib_s", "MiB/s"},
	{"first_byte_s", "s"},
	{"peak_heap_mib", "MiB"},
	{"cpu_s", "s"},
}

// perLayer are the metrics of single layers, from traced operations
// (--trace 1).
var perLayer = []metricDef{
	{"codec.encode_s", "s"},
	{"codec.decode_s", "s"},
	{"codec.unparsable_strands", "count"},
	{"codec.missing_columns", "count"},
	{"codec.duplicate_index", "count"},
	{"codec.rs_erased_symbols", "count"},
	{"codec.rs_corrected_symbols", "count"},
	{"sim.simulate_s", "s"},
	{"sim.reads_per_s", "reads/s"},
	{"cluster.cluster_s", "s"},
	{"cluster.reads_per_s", "reads/s"},
	{"cluster.signature_s", "s"},
	{"cluster.edit_calls", "count"},
	{"cluster.edit_calls_per_read", "ratio"},
	{"cluster.rounds", "count"},
	{"cluster.merges", "count"},
	{"cluster.cheap_merge_share", "ratio"},
	{"cluster.confirm_yield", "ratio"},
	{"cluster.theta_low", "count"},
	{"cluster.theta_high", "count"},
	{"cluster.clusters_per_strand", "ratio"},
	{"cluster.accuracy", "ratio"},
	{"recon.reconstruct_s", "s"},
	{"recon.clusters_per_s", "clusters/s"},
	{"recon.exact_fraction", "ratio"},
	{"core.overhead_s", "s"},
	{"stream.demux_spill_fraction", "ratio"},
	{"stream.overlap", "ratio"},
	{"stream.volume_latency_s", "s"},
	{"archive.build_io_s", "s"},
	{"archive.commit_overhead_s", "s"},
	{"archive.audit_s", "s"},
	{"archive.stored_bytes_per_user_byte", "ratio"},
	{"archive.redone", "count"},
	{"archive.takeovers", "count"},
	{"trace.overhead", "ratio"},
	{"trace.busy_gap", "ratio"},
}

// result is one benchmark run: every operation's measurements.
type result struct {
	setups    []float64 // seconds, setupRepeats per operation
	plain     []opResult
	traced    []opResult
	problems  []string // agreement-check failures
	spans     []span
	notes     []string
	attempted int
	failed    int
	failures  []string
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// measure runs operations of w until cfg.seconds is spent: at least one
// (two with tracing, alternating untraced and traced), and no new one when
// the median operation would overrun.
func measure(ctx context.Context, w workload, cfg config) (*result, error) {
	opDir := filepath.Join(cfg.workDir, "op")
	res := &result{}
	var opSeconds []float64
	start := time.Now()
	minOps := 1
	if cfg.trace {
		minOps = 2
	}
	for i := 0; ; i++ {
		elapsed := time.Since(start).Seconds()
		if i >= minOps && elapsed+median(opSeconds) > cfg.seconds {
			break
		}
		// Untraced operations each get their own inputs, so the run's
		// medians pool several inputs instead of depending on one draw of
		// the clustering thresholds. Traced operations, and the untraced
		// ones the tracing overhead is measured against, share input 0, so
		// the per-layer counts are exact at a fixed seed.
		in := makeInputs(w, cfg.seed, i)
		if cfg.trace {
			in = makeInputs(w, cfg.seed, 0)
		}
		t0 := time.Now()
		p, setups, err := w.setup(in)
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, setups...)
		var tr *tracer
		if cfg.trace && i%2 == 1 {
			tr = newTracer(start, i)
		}
		op, err := w.runOp(ctx, p, in, opDir, tr)
		if err != nil {
			return nil, err
		}
		if err := os.RemoveAll(opDir); err != nil {
			return nil, err
		}
		res.attempted += op.attempted
		res.failed += op.failed
		for _, f := range op.failures {
			res.failures = append(res.failures, fmt.Sprintf("op %d: %s", i, f))
		}
		if tr == nil {
			res.plain = append(res.plain, op)
		} else {
			problems, gap := tr.agree()
			for _, p := range problems {
				res.problems = append(res.problems, fmt.Sprintf("op %d: span/obs disagreement: %s", i, p))
			}
			op.layers["trace.busy_gap"] = gap
			res.traced = append(res.traced, op)
			res.spans = append(res.spans, tr.spans...)
		}
		opSeconds = append(opSeconds, time.Since(t0).Seconds())
	}
	return res, nil
}

// metric is one value of the output line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func mib(b float64) float64 { return b / (1 << 20) }

// pick applies f to every operation.
func pick(ops []opResult, f func(opResult) float64) []float64 {
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = f(op)
	}
	return out
}

// endToEndSamples are the per-operation samples of every end-to-end metric.
func (r *result) endToEndSamples(w workload) map[string][]float64 {
	size := mib(float64(w.inputBytes))
	return map[string][]float64{
		"setup_s":         r.setups,
		"roundtrip_mib_s": pick(r.plain, func(o opResult) float64 { return size / o.wall.Seconds() }),
		"write_mib_s":     pick(r.plain, func(o opResult) float64 { return size / o.write.Seconds() }),
		"read_mib_s":      pick(r.plain, func(o opResult) float64 { return size / o.read.Seconds() }),
		"first_byte_s":    pick(r.plain, func(o opResult) float64 { return o.firstByte.Seconds() }),
		"peak_heap_mib":   pick(r.plain, func(o opResult) float64 { return mib(float64(o.peakHeap)) }),
		"cpu_s":           pick(r.plain, func(o opResult) float64 { return o.cpu.Seconds() }),
	}
}

// metrics computes the output line's metrics: medians over operations,
// except peak_heap_mib, a mean. An operation's peak live heap is sampled
// where garbage collections happen to fall, so it takes one of a few
// quantized levels; the mean over the run's operations smooths them, where
// the median or maximum jumps between levels from run to run.
func (r *result) metrics(w workload, trace bool) map[string]metric {
	out := map[string]metric{}
	if !trace {
		samples := r.endToEndSamples(w)
		for _, d := range endToEnd {
			v := median(samples[d.name])
			if d.name == "peak_heap_mib" {
				v = mean(samples[d.name])
			}
			out[d.name] = metric{Value: v, Unit: d.unit}
		}
		return out
	}
	for _, d := range perLayer {
		out[d.name] = metric{Value: median(pick(r.traced, func(o opResult) float64 { return o.layers[d.name] })), Unit: d.unit}
	}
	wall := func(o opResult) float64 { return o.wall.Seconds() }
	out["trace.overhead"] = metric{Value: ratio(median(pick(r.traced, wall)), median(pick(r.plain, wall))), Unit: "ratio"}
	return out
}

// print writes the human-readable report and, last, the JSON result line.
func (r *result) print(out io.Writer, w workload, cfg config) error {
	fmt.Fprintf(out, "workload %s seed %d GOMAXPROCS %d: %d untraced + %d traced operations, %d KiB input\n",
		w.name, cfg.seed, runtime.GOMAXPROCS(0), len(r.plain), len(r.traced), w.inputBytes>>10)
	fmt.Fprintf(out, "  untraced operations, wall s: %.4g\n", pick(r.plain, func(o opResult) float64 { return o.wall.Seconds() }))
	fmt.Fprintf(out, "  untraced operations, peak heap MiB: %.4g\n", pick(r.plain, func(o opResult) float64 { return mib(float64(o.peakHeap)) }))
	samples := r.endToEndSamples(w)
	for _, d := range endToEnd {
		if len(samples[d.name]) > 0 {
			fmt.Fprintf(out, "  %-36s %-8s %s\n", d.name, d.unit, summary(samples[d.name]))
		}
	}
	// Quality figures of the untraced operations. They are exact at a fixed
	// seed but vary from seed to seed with a handful of rare events, so the
	// JSON line carries the failure count as attempted/failed and the
	// decode-margin counts only as per-layer metrics.
	fmt.Fprintf(out, "  %-36s %-8s %.6g (%d of %d failed)\n", "failed_fraction", "ratio",
		ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	all := slices.Concat(r.plain, r.traced)
	fmt.Fprintf(out, "  %-36s %-8s %s\n", "rs_erased_symbols", "count",
		summary(pick(all, func(o opResult) float64 { return float64(o.report.ErasedSymbols) })))
	fmt.Fprintf(out, "  %-36s %-8s %s\n", "rs_corrected_symbols", "count",
		summary(pick(all, func(o opResult) float64 { return float64(o.report.CorrectedSymbols) })))
	metrics := r.metrics(w, cfg.trace)
	if cfg.trace {
		for _, d := range perLayer {
			fmt.Fprintf(out, "  %-36s %-8s %.6g\n", d.name, d.unit, metrics[d.name].Value)
		}
	}
	for _, s := range slices.Concat(r.failures, r.problems, r.notes) {
		fmt.Fprintf(out, "  %s\n", s)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// writeTrace writes the recorded spans as JSON.
func writeTrace(path string, spans []span) error {
	raw, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
