package experiments

import (
	"fmt"
	"runtime"
	"time"

	"vectordb/internal/bitset"
	"vectordb/internal/dataset"
	"vectordb/internal/query"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// Fig. 14/15 workload (Sec. 7.5): SIFT-like vectors augmented with a
// uniform attribute in [0, 10000). "Query selectivity" is the fraction of
// entities that FAIL the attribute constraint, so selectivity s maps to the
// range [0, (1-s)·10000).
var selectivities = []float64{0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99}

func rangeFor(s float64) query.RangeCond {
	hi := int64((1 - s) * 10000)
	if hi < 1 {
		hi = 1
	}
	return query.RangeCond{Attr: 0, Lo: 0, Hi: hi - 1}
}

type filteringWorkload struct {
	tab     *query.Table
	parts   []query.Partition
	queries []float32
	dim     int
}

func buildFilteringWorkload(sc Scale) (*filteringWorkload, error) {
	d := dataset.SIFTLike(sc.N, 15)
	attrs := dataset.Attributes(sc.N, 10000, 16)
	tab, err := query.NewTable(vec.L2, d.Dim, d.Data, nil, [][]int64{attrs})
	if err != nil {
		return nil, err
	}
	ivfParams := map[string]string{"nlist": "128", "iter": "5"}
	if err := tab.BuildIndex("IVF_FLAT", ivfParams); err != nil {
		return nil, err
	}
	// Strategy E: ρ partitions on the hot attribute (paper: ~1M rows per
	// partition at billion scale; scaled to ~N/8 here).
	parts, err := tab.PartitionByAttr(0, 8, "IVF_FLAT", map[string]string{"nlist": "32", "iter": "5"})
	if err != nil {
		return nil, err
	}
	return &filteringWorkload{
		tab:     tab,
		parts:   query.Partitions(parts),
		queries: dataset.Queries(d, sc.NQ, 17),
		dim:     d.Dim,
	}, nil
}

func (w *filteringWorkload) runStrategy(name string, rc query.RangeCond, k, nprobe int) time.Duration {
	nq := len(w.queries) / w.dim
	m := query.DefaultCostModel()
	return timeIt(func() {
		for qi := 0; qi < nq; qi++ {
			vc := query.VecCond{Field: 0, Query: w.queries[qi*w.dim : (qi+1)*w.dim], K: k, Nprobe: nprobe}
			switch name {
			case query.StratA:
				query.StrategyA(w.tab, rc, vc)
			case query.StratB:
				query.StrategyB(w.tab, rc, vc)
			case query.StratC:
				query.StrategyC(w.tab, rc, vc)
			case query.StratD:
				query.StrategyD(w.tab, rc, vc, m)
			case query.StratE:
				query.StrategyE(w.parts, rc, vc, m)
			}
		}
	})
}

// ExpFig14 reproduces Fig. 14: attribute-filtering strategies A–E across
// query selectivity, in the paper's two configurations (k=50 and k=500).
func ExpFig14(sc Scale, k int) (*Table, error) {
	sc = sc.defaults()
	if k <= 0 {
		k = sc.K
	}
	w, err := buildFilteringWorkload(sc)
	if err != nil {
		return nil, err
	}
	nq := len(w.queries) / w.dim
	t := &Table{
		Name:   fmt.Sprintf("fig14-k%d", k),
		Title:  fmt.Sprintf("Attribute filtering strategies, n=%d nq=%d k=%d (Fig. 14)", sc.N, nq, k),
		Header: []string{"selectivity", "A", "B", "C", "D", "E"},
	}
	nprobe := 16
	for _, s := range selectivities {
		rc := rangeFor(s)
		row := []any{fmt.Sprintf("%.2f", s)}
		for _, strat := range []string{query.StratA, query.StratB, query.StratC, query.StratD, query.StratE} {
			row = append(row, w.runStrategy(strat, rc, k, nprobe))
		}
		t.Add(row...)
	}
	return t, nil
}

// Fig. 15 baseline filtering models — each system filters the way its
// architecture permits (see internal/baseline's package comment):
//
//   - System A-like: post-filtering on a graph index with doubling
//     re-fetches (graph systems cannot push predicates into the scan).
//   - System B-like: brute-force scan of everything, filter applied per row.
//   - System C-like: strategy C through a row-at-a-time executor (modeled
//     by a per-candidate attribute lookup on the unsorted path).
//   - Vearch-like: bitmap filtering, but the bitmap is built by a linear
//     scan because the attribute column has no sorted index.
//   - Milvus: strategy E.
func (w *filteringWorkload) runSystem(name string, rc query.RangeCond, k, nprobe int) time.Duration {
	nq := len(w.queries) / w.dim
	m := query.DefaultCostModel()
	total := w.tab.TotalRows()
	return timeIt(func() {
		for qi := 0; qi < nq; qi++ {
			q := w.queries[qi*w.dim : (qi+1)*w.dim]
			vc := query.VecCond{Field: 0, Query: q, K: k, Nprobe: nprobe}
			switch name {
			case "System A":
				// post-filter with doubling fetch
				fetch := k
				for {
					cands := w.tab.VectorQuery(0, q, fetch, nprobe)
					kept := 0
					for _, c := range cands {
						if v, ok := w.tab.AttrValue(0, c.ID); ok && v >= rc.Lo && v <= rc.Hi {
							kept++
						}
					}
					if kept >= k || fetch >= total || len(cands) < fetch {
						break
					}
					fetch *= 2
				}
			case "System B":
				// brute force scan with inline filter
				h := topk.New(k)
				for id := int64(0); id < int64(total); id++ {
					v, ok := w.tab.AttrValue(0, id)
					if !ok || v < rc.Lo || v > rc.Hi {
						continue
					}
					if dist, ok := w.tab.DistanceByID(0, q, id); ok {
						h.Push(id, dist)
					}
				}
				h.Results()
			case "System C":
				query.StrategyC(w.tab, rc, vc)
			case "Vearch":
				// bitmap built by linear attribute scan (no sorted column);
				// row IDs are positions here, so the ID is the bit index
				bitmap, matched := bitset.New(total), 0
				for id := int64(0); id < int64(total); id++ {
					if v, ok := w.tab.AttrValue(0, id); ok && v >= rc.Lo && v <= rc.Hi {
						bitmap.Set(int(id))
						matched++
					}
				}
				if matched > 0 {
					w.tab.VectorQueryPushed(0, q, k, nprobe, query.NewPushedFilter(matched, total, "", bitmap, nil))
				}
			case "Milvus":
				query.StrategyE(w.parts, rc, vc, m)
			}
		}
	})
}

// ExpFig15 reproduces Fig. 15: attribute filtering across systems.
func ExpFig15(sc Scale, k int) (*Table, error) {
	sc = sc.defaults()
	if k <= 0 {
		k = sc.K
	}
	w, err := buildFilteringWorkload(sc)
	if err != nil {
		return nil, err
	}
	nq := len(w.queries) / w.dim
	t := &Table{
		Name:   fmt.Sprintf("fig15-k%d", k),
		Title:  fmt.Sprintf("Attribute filtering across systems, n=%d nq=%d k=%d (Fig. 15)", sc.N, nq, k),
		Header: []string{"selectivity", "SystemA", "SystemB", "SystemC", "Vearch", "Milvus"},
		Notes: []string{
			fmt.Sprintf("host exposes %d core(s); per-query work measured, each architecture's concurrency on the paper's node modeled as in fig8", runtime.GOMAXPROCS(0)),
		},
	}
	// Architectural concurrency on the paper's 16-vCPU node (see fig8).
	concurrency := map[string]float64{
		"System A": 2, "System B": 16, "System C": 8, "Vearch": 1, "Milvus": 16,
	}
	host := float64(runtime.GOMAXPROCS(0))
	for _, s := range selectivities {
		rc := rangeFor(s)
		row := []any{fmt.Sprintf("%.2f", s)}
		for _, sys := range []string{"System A", "System B", "System C", "Vearch", "Milvus"} {
			el := w.runSystem(sys, rc, k, 16)
			if c := concurrency[sys]; c > host {
				el = time.Duration(float64(el) * host / c)
			}
			row = append(row, el)
		}
		t.Add(row...)
	}
	return t, nil
}
