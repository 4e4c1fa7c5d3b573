package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vectordb/e2ebench/benchkit"
)

func quickConfig(t *testing.T, seed int64, trace bool) runConfig {
	t.Helper()
	tmp := t.TempDir()
	return runConfig{
		seed: seed, window: time.Second, warm: 200 * time.Millisecond,
		setups: 1, trace: trace, traced: 50, clients: 2,
		tmp: tmp, traceOut: filepath.Join(tmp, "spans.jsonl"), env: benchkit.Env{Clients: 2},
	}
}

// TestBenchQuick runs all six workloads end to end at -quick sizes, traced
// pass included, so a workload that has rotted fails the module's tests.
func TestBenchQuick(t *testing.T) {
	for _, w := range workloads {
		w := quickSized(w)
		t.Run(w.Name, func(t *testing.T) {
			res, err := runWorkload(w, quickConfig(t, 1, true))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v failed=%d attempted=%d problems=%v", res.Correct, res.Failed, res.Attempted, res.Problems)
			}
			// Both result lines must be printable: every named metric measured.
			if err := resultLine(io.Discard, res, false); err != nil {
				t.Error(err)
			}
			if err := resultLine(io.Discard, res, true); err != nil {
				t.Error(err)
			}
			for _, m := range endToEndMetrics {
				if v := res.EndToEnd[m.Name].Value; v <= 0 {
					t.Errorf("end-to-end metric %s = %g, must never be 0", m.Name, v)
				}
			}
			if res.PerLayer["trace.root_us"].Value <= 0 {
				t.Error("traced pass recorded no root spans")
			}
			if _, err := os.Stat(res.Info["span_file"]); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

// TestDeterminism: the seed fixes the request stream and, through it,
// recall on the freshly set-up collection.
func TestDeterminism(t *testing.T) {
	for _, w := range workloads {
		w := quickSized(w)
		t.Run(w.Name, func(t *testing.T) {
			cfg := quickConfig(t, 7, false)
			cfg.window, cfg.warm = 200*time.Millisecond, 50*time.Millisecond
			a, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a.Hash != b.Hash {
				t.Errorf("same seed, stream hashes %s and %s", a.Hash, b.Hash)
			}
			if ra, rb := a.EndToEnd["recall_at_k"].Value, b.EndToEnd["recall_at_k"].Value; ra != rb {
				t.Errorf("same seed, recall_at_k %g and %g", ra, rb)
			}
			other := generate(w, 8, cfg.warm, cfg.window)
			if other.hash == a.Hash {
				t.Errorf("seeds 7 and 8 produced the same stream %s", a.Hash)
			}
		})
	}
}

// TestBenchmarkJSON holds BENCHMARK.json at the repository root to the
// names, units, directions and bounds this package reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the module: %v", err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the command's default window is %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: listed %q / %q, defined %q / %q", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	if len(doc.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics listed, %d reported", len(doc.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range endToEndMetrics {
		if got := doc.EndToEnd[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end %d: listed %+v, reported %+v", i, got, m)
		}
	}
	if len(doc.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics listed, %d reported", len(doc.PerLayer), len(perLayerMetrics))
	}
	for i, m := range perLayerMetrics {
		if got := doc.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer %d: listed %+v, reported %+v", i, got, m)
		}
	}
}
