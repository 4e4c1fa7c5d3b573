package obs_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"vectordb/internal/obs"
	"vectordb/internal/obs/promtext"
)

// goldenRegistry builds a registry with every metric kind, deterministic
// values, and label values that exercise the escaping rules.
func goldenRegistry() *obs.Registry {
	r := obs.NewRegistry()
	r.Help("vdb_queries_total", `Total queries; escapes: \ and newline`+"\n"+`end`)
	r.Counter("vdb_queries_total", "collection", "a").Add(3)
	r.Counter("vdb_queries_total", "collection", "q\"uo\\te\nnl").Inc()
	r.GaugeFunc("vdb_up", func() int64 { return 1 })
	h := r.Histogram("vdb_lat_seconds",
		[]time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond},
		"collection", "a")
	h.Observe(500 * time.Microsecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(50 * time.Millisecond)
	h.Observe(time.Second)
	r.GaugeFunc("vdb_fn", func() int64 { return 7 })
	return r
}

const golden = `# TYPE vdb_fn gauge
vdb_fn 7
# TYPE vdb_lat_seconds histogram
vdb_lat_seconds_bucket{collection="a",le="0.001"} 1
vdb_lat_seconds_bucket{collection="a",le="0.01"} 2
vdb_lat_seconds_bucket{collection="a",le="0.1"} 3
vdb_lat_seconds_bucket{collection="a",le="+Inf"} 4
vdb_lat_seconds_sum{collection="a"} 1.0555
vdb_lat_seconds_count{collection="a"} 4
# HELP vdb_queries_total Total queries; escapes: \\ and newline\nend
# TYPE vdb_queries_total counter
vdb_queries_total{collection="a"} 3
vdb_queries_total{collection="q\"uo\\te\nnl"} 1
# TYPE vdb_up gauge
vdb_up 1
`

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != golden {
		t.Fatalf("exposition mismatch\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
}

func TestWritePrometheusStableOrdering(t *testing.T) {
	// Two scrapes of the same registry must be byte-identical, and a
	// registry populated in a different order must expose identically.
	r := goldenRegistry()
	var a, b bytes.Buffer
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("repeated scrapes must be identical")
	}

	r2 := obs.NewRegistry()
	r2.Counter("b_total", "y", "2", "x", "1").Inc()
	r2.Counter("a_total").Inc()
	r3 := obs.NewRegistry()
	r3.Counter("a_total").Inc()
	r3.Counter("b_total", "x", "1", "y", "2").Inc()
	var o2, o3 bytes.Buffer
	if err := r2.WritePrometheus(&o2); err != nil {
		t.Fatal(err)
	}
	if err := r3.WritePrometheus(&o3); err != nil {
		t.Fatal(err)
	}
	if o2.String() != o3.String() {
		t.Fatalf("insertion order leaked into exposition:\n%s\nvs\n%s", o2.String(), o3.String())
	}
}

func TestPromtextRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := promtext.Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*promtext.Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}

	q := byName["vdb_queries_total"]
	if q == nil || q.Type != "counter" {
		t.Fatalf("vdb_queries_total family: %+v", q)
	}
	if want := "Total queries; escapes: \\ and newline\nend"; q.Help != want {
		t.Fatalf("help round-trip: %q != %q", q.Help, want)
	}
	found := false
	for _, s := range q.Samples {
		if s.Labels["collection"] == "q\"uo\\te\nnl" && s.Value == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("escaped label value did not round-trip: %+v", q.Samples)
	}

	hist := byName["vdb_lat_seconds"]
	if hist == nil || hist.Type != "histogram" {
		t.Fatalf("histogram family: %+v", hist)
	}
	// Bucket cumulativity: values must be non-decreasing in le order and
	// the +Inf bucket must equal _count.
	var prev float64 = -1
	var inf, count float64
	for _, s := range hist.Samples {
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			if s.Value < prev {
				t.Fatalf("bucket regression: %v after %v", s.Value, prev)
			}
			prev = s.Value
			if s.Labels["le"] == "+Inf" {
				inf = s.Value
			}
		case strings.HasSuffix(s.Name, "_count"):
			count = s.Value
		case strings.HasSuffix(s.Name, "_sum"):
			if s.Value <= 1.0 || s.Value >= 1.1 {
				t.Fatalf("sum = %v, want ~1.0555", s.Value)
			}
		}
	}
	if inf != 4 || count != 4 {
		t.Fatalf("le=+Inf (%v) must equal _count (%v) = 4", inf, count)
	}

	if f := byName["vdb_fn"]; f == nil || f.Type != "gauge" || f.Samples[0].Value != 7 {
		t.Fatalf("gauge-func family: %+v", f)
	}
}

func TestPromtextMalformed(t *testing.T) {
	for _, in := range []string{
		"no_value_here\n",
		`bad_label{x=unquoted} 1` + "\n",
		`bad_escape{x="\q"} 1` + "\n",
		`unterminated{x="abc 1` + "\n",
		"name 12x34\n",
		"# TYPE only_two\n",
	} {
		if _, err := promtext.Parse([]byte(in)); err == nil {
			t.Errorf("Parse(%q) = nil error, want failure", in)
		}
	}
	// Bare comments and blank lines are fine.
	fams, err := promtext.Parse([]byte("\n# just a comment\nok_total 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 1 || fams[0].Samples[0].Value != 1 {
		t.Fatalf("fams = %+v", fams)
	}
}
