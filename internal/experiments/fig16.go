package experiments

import (
	"fmt"

	"vectordb/internal/dataset"
	"vectordb/internal/query"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// ExpFig16 reproduces Fig. 16: multi-vector query processing on a
// Recipe1M-like two-field dataset (text + image embeddings), comparing
// bounded NRA (NRA-50, NRA-2048), iterative merging (IMG-4096/8192/16384)
// and — for the decomposable inner-product metric — vector fusion.
// metricName is "L2" (Fig. 16a) or "IP" (Fig. 16b).
func ExpFig16(sc Scale, metricName string) (*Table, error) {
	sc = sc.defaults()
	m, err := vec.ParseMetric(metricName)
	if err != nil {
		return nil, err
	}
	// Noise 1.5 keeps the two modalities only weakly correlated, as
	// Recipe1M's text and image embeddings are.
	mv := dataset.RecipeLikeNoise(sc.N, []int{64, 64}, 1.5, 19)
	mt, err := query.NewMultiTable(m, mv.Dims, mv.Fields, nil)
	if err != nil {
		return nil, err
	}
	ivfParams := map[string]string{"nlist": "128", "iter": "5"}
	if err := mt.BuildIndex("IVF_FLAT", ivfParams); err != nil {
		return nil, err
	}

	nq := sc.NQ
	if nq > 64 {
		nq = 64 // ground truth is exhaustive over both fields
	}
	weights := []float32{1, 1}
	type qpair struct{ q [][]float32 }
	queries := make([]qpair, nq)
	{
		base := dataset.Queries(&dataset.Dataset{Name: "f0", Dim: 64, N: sc.N, Data: mv.Fields[0]}, nq, 20)
		base2 := dataset.Queries(&dataset.Dataset{Name: "f1", Dim: 64, N: sc.N, Data: mv.Fields[1]}, nq, 20)
		for i := 0; i < nq; i++ {
			queries[i] = qpair{q: [][]float32{base[i*64 : (i+1)*64], base2[i*64 : (i+1)*64]}}
		}
	}
	truth := make([][]topk.Result, nq)
	for i := range queries {
		truth[i] = mt.GroundTruth(queries[i].q, weights, sc.K)
	}

	// Vector fusion substrate: the concatenated field (Sec. 4.2).
	var fused *query.Table
	if m.Decomposable() && m == vec.IP {
		concat := make([]float32, 0, sc.N*128)
		for i := 0; i < sc.N; i++ {
			concat = append(concat, mv.Field(0, i)...)
			concat = append(concat, mv.Field(1, i)...)
		}
		fused, err = query.NewTable(m, 128, concat, nil, nil)
		if err != nil {
			return nil, err
		}
		if err := fused.BuildIndex("IVF_FLAT", ivfParams); err != nil {
			return nil, err
		}
	}

	t := &Table{
		Name:   "fig16-" + metricName,
		Title:  fmt.Sprintf("Multi-vector processing, %s, n=%d nq=%d k=%d (Fig. 16)", metricName, sc.N, nq, sc.K),
		Header: []string{"algorithm", "recall", "qps"},
	}

	run := func(label string, fn func(q [][]float32) []topk.Result) {
		got := make([][]topk.Result, nq)
		el := timeIt(func() {
			for i := range queries {
				got[i] = fn(queries[i].q)
			}
		})
		t.Add(label, recallOf(truth, got), qps(nq, el))
	}

	run("NRA-50", func(q [][]float32) []topk.Result {
		return query.BoundedStandardNRA(mt, q, weights, sc.K, 50).Results
	})
	run("NRA-2048", func(q [][]float32) []topk.Result {
		return query.BoundedStandardNRA(mt, q, weights, sc.K, 2048).Results
	})
	for _, th := range []int{4096, 8192, 16384} {
		th := th
		run(fmt.Sprintf("IMG-%d", th), func(q [][]float32) []topk.Result {
			return query.IterativeMerging(mt, q, weights, sc.K, th)
		})
	}
	if fused != nil {
		run("vector fusion", func(q [][]float32) []topk.Result {
			fq := make([]float32, 0, 128)
			fq = append(fq, q[0]...)
			fq = append(fq, q[1]...)
			return fused.VectorQuery(0, fq, sc.K, 32)
		})
	} else {
		t.Notes = append(t.Notes, "vector fusion omitted: "+metricName+" with general weights is not decomposable (paper Sec. 4.2)")
	}
	return t, nil
}
