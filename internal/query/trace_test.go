package query

import (
	"testing"

	"vectordb/internal/dataset"
	"vectordb/internal/obs"
)

// TestStrategiesRecordTrace verifies that every filtering strategy stamps
// the trace with its identity and per-phase spans: the exported
// TraceSummary is the contract the slow-query log and /debug/queries rely
// on to explain which of the paper's plans (Fig. 4) served a query.
func TestStrategiesRecordTrace(t *testing.T) {
	tab := filterTable(t, 2000, "IVF_FLAT")
	q := dataset.Queries(&dataset.Dataset{Dim: 128, N: 2000, Data: tab.data}, 1, 7)
	rc := RangeCond{Attr: 0, Lo: 2000, Hi: 7000}

	cases := []struct {
		name      string
		run       func(vc VecCond)
		strategy  string // expected filter_strategy attr ("" = any of A/B/C)
		wantSpans []string
	}{
		{
			name:      "A",
			run:       func(vc VecCond) { StrategyA(tab, rc, vc) },
			strategy:  StratA,
			wantSpans: []string{"attr_filter", "exact_scan"},
		},
		{
			name:      "B",
			run:       func(vc VecCond) { StrategyB(tab, rc, vc) },
			strategy:  StratB,
			wantSpans: []string{"attr_filter"},
		},
		{
			name:      "C",
			run:       func(vc VecCond) { StrategyC(tab, rc, vc) },
			strategy:  StratC,
			wantSpans: []string{"vector_first", "verify"},
		},
		{
			name:      "D",
			run:       func(vc VecCond) { StrategyD(tab, rc, vc, DefaultCostModel()) },
			strategy:  "", // D delegates; the chosen letter is on the plan span
			wantSpans: []string{"filter_plan"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := obs.NewQueryRecord("filtered")
			vc := VecCond{Field: 0, Query: q, K: 10, Trace: tr}
			tc.run(vc)
			tr.Finish()
			sum := tr.Summary()

			got, _ := sum.Attr("filter_strategy")
			if tc.strategy != "" && got != tc.strategy {
				t.Errorf("filter_strategy = %q, want %q", got, tc.strategy)
			}
			if tc.strategy == "" && got != StratA && got != StratB && got != StratC {
				t.Errorf("filter_strategy = %q, want one of A/B/C", got)
			}
			stages := map[string]bool{}
			for _, s := range sum.Stages() {
				stages[s] = true
			}
			for _, want := range tc.wantSpans {
				if !stages[want] {
					t.Errorf("missing span %q; have %v", want, sum.Stages())
				}
			}
		})
	}

	// D's plan span must carry the chosen strategy, matching what it ran.
	t.Run("D-chosen", func(t *testing.T) {
		tr := obs.NewQueryRecord("filtered")
		vc := VecCond{Field: 0, Query: q, K: 10, Trace: tr}
		_, chosen := StrategyD(tab, rc, vc, DefaultCostModel())
		tr.Finish()
		sum := tr.Summary()
		var planChosen string
		for _, sp := range sum.Spans {
			if sp.Name != "filter_plan" {
				continue
			}
			for _, kv := range sp.Attrs {
				if kv.Key == "chosen" {
					planChosen = kv.Value
				}
			}
		}
		if planChosen != chosen {
			t.Errorf("filter_plan chosen = %q, but D ran %q", planChosen, chosen)
		}
		if got, _ := sum.Attr("filter_strategy"); got != chosen {
			t.Errorf("filter_strategy = %q, want delegate %q", got, chosen)
		}
	})
}

// TestStrategyETrace checks E's trace shape: the strategy letter stays E
// (inner delegation must not overwrite it), and every partition gets a
// span recording whether it was pruned, fully covered, or delegated.
func TestStrategyETrace(t *testing.T) {
	tab := filterTable(t, 3000, "")
	parts, err := tab.PartitionByAttr(0, 6, "FLAT", nil)
	if err != nil {
		t.Fatal(err)
	}
	q := dataset.Queries(&dataset.Dataset{Dim: 128, N: 3000, Data: tab.data}, 1, 8)

	// A mid-range predicate: some partitions pruned, some fully covered,
	// the two boundary ones delegated.
	lo, _, _ := parts[1].AttrBounds(0)
	_, hi, _ := parts[4].AttrBounds(0)
	rc := RangeCond{Attr: 0, Lo: lo + 1, Hi: hi - 1}

	tr := obs.NewQueryRecord("filtered")
	vc := VecCond{Field: 0, Query: q, K: 10, Trace: tr}
	StrategyE(Partitions(parts), rc, vc, DefaultCostModel())
	tr.Finish()
	sum := tr.Summary()

	if got, _ := sum.Attr("filter_strategy"); got != StratE {
		t.Fatalf("filter_strategy = %q, want E (inner strategies must not overwrite it)", got)
	}
	actions := map[string]int{}
	partSpans := 0
	for _, sp := range sum.Spans {
		if sp.Name != "partition" {
			continue
		}
		partSpans++
		for _, kv := range sp.Attrs {
			if kv.Key == "action" {
				actions[kv.Value]++
			}
		}
	}
	if partSpans != len(parts) {
		t.Fatalf("%d partition spans, want one per partition (%d)", partSpans, len(parts))
	}
	if actions["pruned"] == 0 {
		t.Errorf("no partition recorded as pruned; actions=%v", actions)
	}
	if actions["full_vector"] == 0 {
		t.Errorf("no partition recorded as fully covered; actions=%v", actions)
	}
	if actions["delegated"] == 0 {
		t.Errorf("no partition recorded as delegated; actions=%v", actions)
	}
	stages := sum.Stages()
	found := false
	for _, s := range stages {
		if s == "topk_merge" {
			found = true
		}
	}
	if !found {
		t.Errorf("missing topk_merge span; stages=%v", stages)
	}
}
