package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// WritePrometheus writes every registered series in Prometheus text
// exposition format 0.0.4. Families are sorted by name and series by
// canonical label string, so output order is stable across scrapes.
// Histogram buckets are emitted cumulatively with a final le="+Inf" bucket
// equal to the _count line, and _sum in seconds.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	// Snapshot family/series structure under the lock, then read the
	// atomic values outside it so scrapes never stall writers.
	type expoSeries struct {
		labels string
		c      *Counter
		h      *Histogram
		fn     func() int64
	}
	type expoFamily struct {
		name   string
		help   string
		typ    metricType
		series []expoSeries
	}
	r.mu.Lock()
	fams := make([]expoFamily, 0, len(r.fams))
	for name, f := range r.fams {
		ef := expoFamily{name: name, help: r.helps[name], typ: f.typ}
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			ef.series = append(ef.series, expoSeries{labels: s.labels, c: s.c, h: s.h, fn: s.fn})
		}
		fams = append(fams, ef)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			switch {
			case s.fn != nil:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, s.labels, s.fn())
			case s.c != nil:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, s.labels, s.c.Value())
			case s.h != nil:
				writeHistogram(bw, f.name, s.labels, s.h)
			}
		}
	}
	return bw.Flush()
}

// writeHistogram emits one histogram series. The +Inf bucket and _count
// line both use the cumulative total computed from the bucket array, so
// the exposition is internally consistent even if Observe calls race with
// the scrape.
func writeHistogram(w io.Writer, name, labels string, h *Histogram) {
	cum := int64(0)
	for i := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(labels, formatSeconds(h.bounds[i])), cum)
	}
	cum += h.buckets[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(labels, "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatSeconds(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, cum)
}

// bucketLabels splices le into an already-rendered label block.
func bucketLabels(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

func formatSeconds(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
}
