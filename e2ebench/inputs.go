package main

import (
	"math/rand"
	"time"

	"vectordb/e2ebench/benchkit"
)

// searchReq is one generated search: the query vector and, on filtering
// workloads, an inclusive attribute range.
type searchReq struct {
	vec    []float32
	lo, hi int64
}

// writeOp is one writer tick: rows to insert (IDs from firstID up) and IDs
// to delete, all of which exist when the tick runs.
type writeOp struct {
	firstID int64
	vecs    []float32
	attrs   []int64
	deletes []int64
}

// inputs is everything a run sends, generated from the seed before any of
// it is sent; the program only ever sees these requests. Row i has ID i.
type inputs struct {
	data     []float32
	attrs    []int64 // per ID, writer rows included; nil without an attribute
	searches []searchReq
	hash     string

	// Open loop only: arrival schedules for warm-up and window, and the
	// writer's ticks across both.
	warmDue, runDue           []time.Duration
	warmWriteDue, runWriteDue []time.Duration
	writes                    []writeOp
}

// generate draws a workload's inputs. One rand stream, consumed in a fixed
// order, so the same seed always yields the same requests.
func generate(w Workload, seed int64, warm, window time.Duration) *inputs {
	r := rand.New(rand.NewSource(seed))
	in := &inputs{}
	switch w.Data {
	case "siftlike":
		in.data = benchkit.SIFTLike(r, w.Rows, w.Dim)
	default:
		in.data = benchkit.Uniform(r, w.Rows, w.Dim)
	}
	if w.Attr {
		in.attrs = benchkit.Attrs(r, w.Rows, attrUpper)
	}
	qs := benchkit.Queries(r, in.data, w.Dim, queryPool)
	in.searches = make([]searchReq, queryPool)
	for i := range in.searches {
		in.searches[i].vec = qs[i*w.Dim : (i+1)*w.Dim]
		if w.Filter {
			in.searches[i].lo, in.searches[i].hi = benchkit.Range(r, attrUpper, filterShares[i%len(filterShares)])
		}
	}
	if w.OpenLoop {
		in.warmDue = benchkit.PoissonArrivals(r, w.Rate, warm)
		in.runDue = benchkit.PoissonArrivals(r, w.Rate, window)
	}
	if w.Writer != nil {
		in.warmWriteDue = benchkit.Ticks(w.Writer.Tick, warm)
		in.runWriteDue = benchkit.Ticks(w.Writer.Tick, window)
		ticks := len(in.warmWriteDue) + len(in.runWriteDue)
		victims := r.Perm(w.Rows) // original rows, each deleted at most once
		next := int64(w.Rows)
		for t := 0; t < ticks; t++ {
			op := writeOp{firstID: next, vecs: benchkit.Uniform(r, w.Writer.Insert, w.Dim)}
			op.attrs = benchkit.Attrs(r, w.Writer.Insert, attrUpper)
			in.attrs = append(in.attrs, op.attrs...)
			next += int64(w.Writer.Insert)
			for d := 0; d < w.Writer.Delete; d++ {
				op.deletes = append(op.deletes, int64(victims[(t*w.Writer.Delete+d)%len(victims)]))
			}
			in.writes = append(in.writes, op)
		}
	}

	h := benchkit.NewStreamHash()
	h.Floats(in.data)
	h.Ints(in.attrs...)
	for _, s := range in.searches {
		h.Floats(s.vec)
		h.Ints(s.lo, s.hi)
	}
	h.Durations(in.warmDue)
	h.Durations(in.runDue)
	for _, op := range in.writes {
		h.Ints(op.firstID)
		h.Floats(op.vecs)
		h.Ints(op.deletes...)
	}
	in.hash = h.Sum()
	return in
}
