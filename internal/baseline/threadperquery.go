package baseline

import (
	"context"
	"sync/atomic"

	"vectordb/internal/exec"
	"vectordb/internal/index"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// ThreadPerQuery models the original Faiss/OpenMP multi-query engine that
// Fig. 11 measures Milvus's cache-aware batching against (Sec. 3.2.1):
// each thread owns one query at a time and streams the entire dataset
// through the CPU caches for it, so the data is read once per query and
// nothing is shared between the queries of a batch. It answers every query
// of the row-major queries over the row-major data, rows named by
// position: tasks on the process's execution pool each own a pooled
// k-heap and claim one query at a time off an atomic cursor, scanning all
// rows through the blocked kernels. (Map's error is its context's, and
// Background is never cancelled.)
func ThreadPerQuery(queries, data []float32, dim, k int, m vec.Metric) [][]topk.Result {
	nq := len(queries) / dim
	out := make([][]topk.Result, nq)
	pool := exec.Default()
	var cursor atomic.Int64
	_ = pool.Map(context.Background(), min(pool.Workers(), nq), func(int) {
		h := topk.GetHeap(k)
		for {
			qi := int(cursor.Add(1)) - 1
			if qi >= nq {
				break
			}
			h.Reset()
			index.ScanBlocked(h, m, queries[qi*dim:(qi+1)*dim], data, dim, nil, index.Selection{})
			out[qi] = h.Results()
		}
		topk.PutHeap(h)
	})
	return out
}
