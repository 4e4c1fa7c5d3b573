package benchkit

import (
	"sort"
	"strconv"
	"strings"

	"vectordb/internal/obs/promtext"
)

// Series is one scrape of a /metrics page: every sample by its name and
// labels. Histogram children keep their own names (x_sum, x_count,
// x_bucket).
type Series []promtext.Sample

// ParseSeries decodes Prometheus text exposition into a flat sample list.
func ParseSeries(text []byte) (Series, error) {
	fams, err := promtext.Parse(text)
	if err != nil {
		return nil, err
	}
	var out Series
	for _, f := range fams {
		out = append(out, f.Samples...)
	}
	return out, nil
}

// Sum adds up the samples called name whose labels include every
// key=value pair of match ("k", "v", "k2", "v2", …).
func (s Series) Sum(name string, match ...string) float64 {
	total := 0.0
next:
	for _, x := range s {
		if x.Name != name {
			continue
		}
		for i := 0; i+1 < len(match); i += 2 {
			if x.Labels[match[i]] != match[i+1] {
				continue next
			}
		}
		total += x.Value
	}
	return total
}

// Delta is what changed between two scrapes of the same registry.
type Delta struct{ Before, After Series }

// Sum is the increase of a counter (or of a histogram's _sum/_count child)
// across the window, summed over the series that match.
func (d Delta) Sum(name string, match ...string) float64 {
	return d.After.Sum(name, match...) - d.Before.Sum(name, match...)
}

// HistMean is the mean observation a histogram took during the window:
// Δ_sum ÷ Δ_count, 0 when it observed nothing.
func (d Delta) HistMean(name string, match ...string) float64 {
	n := d.Sum(name+"_count", match...)
	if n <= 0 {
		return 0
	}
	return d.Sum(name+"_sum", match...) / n
}

// ByLabel lists a labelled counter's increases per value of label, zero
// entries dropped, as "v1=3 v2=1" in label order.
func (d Delta) ByLabel(name, label string) string {
	inc := map[string]float64{}
	for _, x := range d.After {
		if x.Name == name {
			inc[x.Labels[label]] += x.Value
		}
	}
	for _, x := range d.Before {
		if x.Name == name {
			inc[x.Labels[label]] -= x.Value
		}
	}
	keys := make([]string, 0, len(inc))
	for k, v := range inc {
		if v != 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + strconv.FormatFloat(inc[k], 'f', -1, 64)
	}
	return strings.Join(parts, " ")
}
