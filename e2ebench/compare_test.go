package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		m        metricSpec
		a, b     float64
		spA, spB float64
		want     string
	}{
		{lower, 1.00, 1.05, 0.02, 0.02, "same"},
		{lower, 1.00, 1.20, 0.02, 0.02, "worse"},
		{lower, 1.00, 0.80, 0.02, 0.02, "better"},
		{higher, 1000, 850, 0.02, 0.02, "worse"},
		{higher, 1000, 1200, 0.02, 0.02, "better"},
		{higher, 1000, 950, 0.02, 0.02, "same"},
		// A spread wider than the bound on either side: the runs cannot
		// resolve a change of that size, whatever the medians say.
		{lower, 1.00, 1.50, 0.15, 0.02, "unresolved"},
		{lower, 1.00, 1.00, 0.02, 0.11, "unresolved"},
		// A MedianOnly metric is judged on its medians alone.
		{metricSpec{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, MedianOnly: true}, 2.0, 2.1, 0.30, 0.32, "same"},
		{metricSpec{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, MedianOnly: true}, 2.0, 2.6, 0.30, 0.32, "worse"},
	} {
		if got := verdict(c.m, c.a, c.b, c.spA, c.spB); got != c.want {
			t.Errorf("verdict(%s, %g→%g, spreads %g/%g) = %s, want %s", c.m.Name, c.a, c.b, c.spA, c.spB, got, c.want)
		}
	}
}

// resultsFile writes one Result line per value of qps; the other end-to-end
// metrics are constant.
func resultsFile(t *testing.T, dir, name string, qps ...float64) string {
	t.Helper()
	path := filepath.Join(dir, name)
	for i, q := range qps {
		r := &Result{Workload: "probe.c1", Seed: int64(i), EndToEnd: map[string]Metric{
			"qps": {q, "1/s"}, "p50_ms": {0.2, "ms"},
			"recall_at_k": {0.3, "fraction"}, "setup_s": {2, "s"},
		}}
		if err := appendResult(path, r); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	base := resultsFile(t, dir, "a.jsonl", 4000, 4010, 4020, 3990, 4005)
	same := resultsFile(t, dir, "b.jsonl", 4001, 4011, 3995, 4020, 4000)
	slow := resultsFile(t, dir, "c.jsonl", 2000, 2010, 2020, 1990, 2005)
	noisy := resultsFile(t, dir, "d.jsonl", 2000, 4000, 6000, 3000, 5000)

	var out bytes.Buffer
	worse, err := compareFiles(&out, base, same)
	if err != nil || worse {
		t.Fatalf("a vs b: worse=%v err=%v\n%s", worse, err, out.String())
	}
	rows := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(rows) != 1+len(endToEndMetrics) {
		t.Errorf("a vs b printed %d rows, want a header and one per end-to-end metric:\n%s", len(rows), out.String())
	}
	for _, row := range rows[1:] {
		if !strings.HasPrefix(row, "probe.c1") || !strings.HasSuffix(row, "same") {
			t.Errorf("row %q: want workload probe.c1, verdict same", row)
		}
	}

	out.Reset()
	if worse, err = compareFiles(&out, base, slow); err != nil || !worse {
		t.Errorf("a vs c: worse=%v err=%v, want worse (qps halved)\n%s", worse, err, out.String())
	}
	out.Reset()
	if worse, err = compareFiles(&out, base, noisy); err != nil || worse || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a vs d: worse=%v err=%v, want unresolved qps and no worse\n%s", worse, err, out.String())
	}
	if _, err = compareFiles(&out, base, filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Error("comparing against a missing file succeeded")
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.jsonl"), []byte("{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err = compareFiles(&out, base, filepath.Join(dir, "bad.jsonl")); err == nil {
		t.Error("comparing against a malformed file succeeded")
	}
}
