package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"vectordb/e2ebench/benchkit"
)

// readResults loads a results file written with -o: one Result per line,
// any number of runs per workload.
func readResults(path string) (map[string][]*Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*Result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for ln := 1; sc.Scan(); ln++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, ln, err)
		}
		out[r.Workload] = append(out[r.Workload], &r)
	}
	return out, sc.Err()
}

// verdict compares side b against side a on one metric. spreadA/spreadB are
// each side's run-to-run spread (interquartile distance ÷ median).
//
//	unresolved  a side's spread is wider than the bound: the runs cannot
//	            tell a change of that size from noise (MedianOnly metrics
//	            are exempt)
//	worse       b's median is worse than a's by more than the bound
//	better      b's median is better than a's by more than the bound
//	same        otherwise
func verdict(m metricSpec, medA, medB, spreadA, spreadB float64) string {
	if !m.MedianOnly && (spreadA > m.Bound || spreadB > m.Bound) {
		return "unresolved"
	}
	if medA == 0 {
		return "same"
	}
	change := (medB - medA) / medA
	if m.Better == "higher" {
		change = -change
	}
	switch { // change > 0 is a worsening
	case change > m.Bound:
		return "worse"
	case change < -m.Bound:
		return "better"
	}
	return "same"
}

// compareFiles prints one row per workload × end-to-end metric and reports
// whether any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) (anyWorse bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbetter\tbound\ta median\ta spread\ta runs\tb median\tb spread\tb runs\tverdict")
	for _, wl := range workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range endToEndMetrics {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			sa, sb := benchkit.Spread(va), benchkit.Spread(vb)
			ma, mb := benchkit.Median(va), benchkit.Median(vb)
			v := verdict(m, ma, mb, sa, sb)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.3f\t%.4f\t%.3f\t%d\t%.4f\t%.3f\t%d\t%s\n",
				wl.Name, m.Name, m.Unit, m.Better, m.Bound, ma, sa, len(va), mb, sb, len(vb), v)
		}
	}
	return anyWorse, tw.Flush()
}

func values(rs []*Result, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.EndToEnd[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
