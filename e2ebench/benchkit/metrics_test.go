package benchkit

import "testing"

const scrapeBefore = `# TYPE vectordb_query_total counter
vectordb_query_total{collection="bench",type="vector"} 10
vectordb_query_total{collection="bench",type="filtered"} 4
# TYPE vectordb_exec_task_wait_seconds histogram
vectordb_exec_task_wait_seconds_bucket{le="0.001"} 3
vectordb_exec_task_wait_seconds_bucket{le="+Inf"} 4
vectordb_exec_task_wait_seconds_sum 0.002
vectordb_exec_task_wait_seconds_count 4
# TYPE vectordb_plan_decisions_total counter
vectordb_plan_decisions_total{decision="ivf_cpu"} 10
vectordb_plan_decisions_total{decision="pushdown"} 4
vectordb_plan_decisions_total{decision="gpu"} 0
`

const scrapeAfter = `# TYPE vectordb_query_total counter
vectordb_query_total{collection="bench",type="vector"} 110
vectordb_query_total{collection="bench",type="filtered"} 24
# TYPE vectordb_exec_task_wait_seconds histogram
vectordb_exec_task_wait_seconds_bucket{le="0.001"} 100
vectordb_exec_task_wait_seconds_bucket{le="+Inf"} 104
vectordb_exec_task_wait_seconds_sum 0.052
vectordb_exec_task_wait_seconds_count 104
# TYPE vectordb_plan_decisions_total counter
vectordb_plan_decisions_total{decision="ivf_cpu"} 110
vectordb_plan_decisions_total{decision="pushdown"} 24
vectordb_plan_decisions_total{decision="gpu"} 0
`

func TestDeltaOverTwoScrapes(t *testing.T) {
	before, err := ParseSeries([]byte(scrapeBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := ParseSeries([]byte(scrapeAfter))
	if err != nil {
		t.Fatal(err)
	}
	d := Delta{Before: before, After: after}
	if got := d.Sum("vectordb_query_total"); got != 120 {
		t.Errorf("Δ query_total over all labels = %g, want 120", got)
	}
	if got := d.Sum("vectordb_query_total", "type", "filtered"); got != 20 {
		t.Errorf("Δ query_total{type=filtered} = %g, want 20", got)
	}
	if got := d.Sum("vectordb_absent_total"); got != 0 {
		t.Errorf("Δ of an absent series = %g, want 0", got)
	}
	// Histogram mean over the window: Δsum ÷ Δcount = 0.050 s ÷ 100.
	if got := d.HistMean("vectordb_exec_task_wait_seconds"); !near(got, 0.0005) {
		t.Errorf("HistMean = %g, want 0.0005", got)
	}
	if got := (Delta{Before: after, After: after}).HistMean("vectordb_exec_task_wait_seconds"); got != 0 {
		t.Errorf("HistMean of an idle window = %g, want 0", got)
	}
	if got := d.ByLabel("vectordb_plan_decisions_total", "decision"); got != "ivf_cpu=100 pushdown=20" {
		t.Errorf("ByLabel = %q, want %q", got, "ivf_cpu=100 pushdown=20")
	}
}

func TestParseSeriesRejectsGarbage(t *testing.T) {
	if _, err := ParseSeries([]byte("vectordb_x{unterminated 3\n")); err == nil {
		t.Error("malformed exposition parsed without error")
	}
}
