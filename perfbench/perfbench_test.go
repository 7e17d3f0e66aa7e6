package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dnastore"
)

// tiny shrinks a workload to a few kilobytes, keeping its operating point
// and, for stream and archive, four volumes.
func tiny(w workload) workload {
	w.inputBytes = 12 << 10
	if w.volumeBytes > 0 {
		w.volumeBytes = 3 << 10
	}
	return w
}

type benchDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchDef {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def benchDef
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	return def
}

// TestEveryWorkloadEmitsEveryMetric runs each workload at tiny input,
// untraced and traced, and checks the output line: correct, nothing
// failed, and exactly the metrics BENCHMARK.json names, each with its unit.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	def := readBenchmarkJSON(t)
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Fatalf("BENCHMARK.json workloads %v, driver workloads %v", names, workloadNames())
	}
	units := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range def.EndToEnd {
		units[false][m.Name] = m.Unit
	}
	for _, m := range def.PerLayer {
		units[true][m.Name] = m.Unit
	}

	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{seed: defaultSeed, seconds: 0, trace: trace, workDir: t.TempDir()}
			tw := tiny(w)
			res, err := measure(context.Background(), tw, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			var out bytes.Buffer
			if err := res.print(&out, tw, cfg); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line struct {
				Correct   bool              `json:"correct"`
				Attempted int               `json:"attempted"`
				Failed    int               `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", w.name, trace, err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.name, trace, line.Correct, line.Attempted, line.Failed, out.String())
			}
			want := units[trace]
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.name, trace, len(line.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := line.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, name)
				case m.Unit != unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.name, trace, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0:
					t.Errorf("%s trace=%v: metric %s = %v", w.name, trace, name, m.Value)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, name, m.Value)
				}
			}
		}
	}
}

// TestCorruptedOutputCountsAsFailure checks that the gates count a single
// flipped output byte as a failed operation: the batch and per-volume
// comparisons directly, and the archive path end to end through
// AuditArchive after a real build and decode.
func TestCorruptedOutputCountsAsFailure(t *testing.T) {
	input := bytes.Repeat([]byte("dnastore"), 1000)
	output := bytes.Clone(input)
	output[4321] ^= 1
	if verifyBatch(input, output, nil) == nil {
		t.Error("batch gate accepted a corrupted output")
	}
	if err := verifyBatch(input, bytes.Clone(input), nil); err != nil {
		t.Errorf("batch gate rejected an exact output: %v", err)
	}
	all := map[uint32]bool{0: true, 1: true, 2: true, 3: true}
	if n, failures := verifyVolumes(input, output, 2000, all, nil); n != 4 || len(failures) != 1 || !strings.HasPrefix(failures[0], "volume 2:") {
		t.Errorf("volume gate: %d volumes, failures %q; want 4 volumes, volume 2 failed", n, failures)
	}
	if _, failures := verifyVolumes(input, bytes.Clone(input), 2000, map[uint32]bool{0: true, 1: true, 3: true}, nil); len(failures) != 1 {
		t.Errorf("volume gate counted %d failures for an undelivered volume, want 1", len(failures))
	}

	w, _ := workloadByName("archive-lownoise")
	w = tiny(w)
	dir := t.TempDir()
	in := makeInputs(w, defaultSeed, 0)
	p, _, err := w.setup(in)
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := runArchive(context.Background(), p, w, in, dir, nil)
	if err != nil || r.failed != 0 {
		t.Fatalf("clean archive run: err=%v failures=%q", err, r.failures)
	}
	outPath := filepath.Join(dir, "restored.bin")
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x80
	if err := os.WriteFile(outPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	audit, err := dnastore.AuditArchive(filepath.Join(dir, "archive"), outPath)
	if err != nil {
		t.Fatal(err)
	}
	n, failures := verifyVolumes(in.data, raw, w.volumeBytes, auditOutcomes(audit), nil)
	if len(failures) != 1 || !strings.HasPrefix(failures[0], "volume 3:") {
		t.Errorf("archive gate after corrupting the last volume: %d volumes, failures %q", n, failures)
	}
	// The audit alone must catch it, even if the bytes were not compared.
	if _, failures := verifyVolumes(in.data, in.data, w.volumeBytes, auditOutcomes(audit), nil); len(failures) != 1 {
		t.Errorf("audit did not flag the corrupted volume: failures %q", failures)
	}
}
