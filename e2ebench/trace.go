package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"vectordb/e2ebench/benchkit"
	"vectordb/internal/cluster"
	"vectordb/internal/core"
	"vectordb/internal/index"
	"vectordb/internal/plan"
	"vectordb/internal/query"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// tracedPass replays the first cfg.traced requests of the stream one at a
// time with the span recorder on, against a second instance of the
// workload whose exec pool has one worker (segment tasks of a REST query
// then run one after another, like the replays below do).
//
// Two kinds of span come out. Live spans time the real request: "client"
// around the SDK call and "rest" around the server's handler, joined by a
// request-id header. Replayed spans time the same query sent again,
// directly, to each layer's public function — core, and under it plan,
// colstore, index (one per segment), vec, topk, exec — and are rebased
// into their parent so the file reads as one tree per request. Nothing is
// recorded inside the program.
func tracedPass(res *Result, w Workload, in *inputs, cfg runConfig) error {
	rec := benchkit.NewRecorder()
	t, _, err := setUp(w, in, cfg, 1, 1000, serverOptions{oneWorker: true, rec: rec})
	if err != nil {
		return err
	}
	defer t.close()

	n := min(cfg.traced, len(in.searches))
	var tr tracer
	switch tt := t.(type) {
	case *restTarget:
		tr, err = newRESTTracer(tt, w, rec)
		if err != nil {
			return err
		}
	case *clusterTarget:
		tr = &clusterTracer{t: tt, w: w, rec: rec}
	}
	// A few unrecorded requests first: the new instance's connection,
	// planner hysteresis and pools are cold.
	for i := 0; i < min(20, n); i++ {
		if _, err := t.search(0, w, in.searches[i]); err != nil {
			return err
		}
	}
	// Live requests first, back to back like the measured loop sends them
	// (a connection left idle between requests would add wake-up latency
	// the measured window never pays); the replays follow.
	roots := make([]int, n)
	for i := 0; i < n; i++ {
		if roots[i], err = tr.live(i+1, in.searches[i]); err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
	}
	for i := 0; i < n; i++ {
		if err := tr.replay(roots[i], in.searches[i]); err != nil {
			return fmt.Errorf("replay of request %d: %w", i, err)
		}
	}

	spans := rec.Spans()
	out := cfg.traceOut
	if out == "" {
		out = filepath.Join(buildDir, "spans-"+w.Name+".jsonl")
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := benchkit.WriteJSONLines(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	res.Info["span_file"] = out

	layerMetrics(res, w, spans, tr.sideChannel())
	if rt, ok := t.(*restTarget); ok {
		res.Info["program_stages"] = programStages(rt.srv.db)
	}
	return nil
}

// tracer records the spans of one request: live sends it for real and
// returns the innermost live span; replay calls the layers under that span
// again, directly, and rebases what they took into it.
type tracer interface {
	live(request int, req searchReq) (span int, err error)
	replay(span int, req searchReq) error
	sideChannel() sideNumbers
}

// sideNumbers are per-request figures the spans themselves do not carry.
type sideNumbers struct {
	kernelBytes []float64 // bytes the vec replay computed over
	selectivity []float64 // share of rows the request's filter passes
}

// restTracer traces REST workloads.
type restTracer struct {
	t       *restTarget
	w       Workload
	rec     *benchkit.Recorder
	col     *core.Collection
	planner *plan.Planner
	scratch []float32 // random rows the vec replay scans
	dists   []float32
	side    sideNumbers
}

func newRESTTracer(t *restTarget, w Workload, rec *benchkit.Recorder) (*restTracer, error) {
	col, err := t.srv.db.Collection(collection)
	if err != nil {
		return nil, err
	}
	// The SDK client of connection 0 gets the tagging transport.
	t.clients[0], t.trs[0] = t.srv.newClient(true)
	// A private planner on the server's calibration profile: replayed
	// placements must not move the server planner's hysteresis or counters.
	p := plan.New(plan.Config{})
	p.UseProfile(t.srv.db.Planner().Profile())
	r := rand.New(rand.NewSource(1))
	return &restTracer{
		t: t, w: w, rec: rec, col: col, planner: p,
		scratch: benchkit.Uniform(r, w.Rows, w.Dim),
		dists:   make([]float32, w.Rows),
	}, nil
}

func (x *restTracer) sideChannel() sideNumbers { return x.side }

func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// live sends the request through the SDK: span "client" around the call,
// span "rest" from the server's handler.
func (x *restTracer) live(request int, req searchReq) (int, error) {
	clientSpan := x.rec.Start(request, 0, "client")
	parents := x.t.srv.parents
	parents.request.Store(int64(request))
	parents.span.Store(int64(clientSpan))
	parents.rest.Store(0)
	_, err := x.t.search(0, x.w, req)
	x.rec.End(clientSpan)
	if err != nil {
		return 0, err
	}
	restSpan := int(parents.rest.Load())
	if restSpan == 0 {
		return 0, fmt.Errorf("server recorded no rest span")
	}
	return restSpan, nil
}

// replay times core on the same query, then each layer under core.
func (x *restTracer) replay(restSpan int, req searchReq) error {
	w, rec := x.w, x.rec
	ctx := context.Background()
	opts := core.SearchOptions{K: w.K, Nprobe: w.Nprobe}
	var err error
	t0 := time.Now()
	if w.Filter {
		_, err = x.col.SearchFilteredCtx(ctx, req.vec, attrField, req.lo, req.hi, opts)
	} else {
		_, err = x.col.SearchCtx(ctx, req.vec, opts)
	}
	coreDur := time.Since(t0)
	if err != nil {
		return err
	}
	coreSpan := rec.Rebase(restSpan, "core", 0, coreDur)

	// Under core, one after another.
	var at time.Duration
	child := func(name string, d time.Duration) int {
		id := rec.Rebase(coreSpan, name, at, d)
		at += d
		return id
	}
	sn := x.col.AcquireSnapshot()
	defer x.col.ReleaseSnapshot(sn)

	if w.Filter {
		x.filteredLayers(sn, req, child)
	} else {
		x.plainLayers(sn, req, child)
	}

	// exec: what handing tasks to the pool costs with no work in them.
	tasks := min(x.t.srv.db.Exec().Workers(), len(sn.Segments))
	t0 = time.Now()
	if err := x.t.srv.db.Exec().Map(ctx, tasks, func(int) {}); err != nil {
		return err
	}
	d := time.Since(t0)
	child("exec", d)
	return nil
}

// plainLayers replays an unfiltered query's layers: placement, every
// segment's search with the kernel work under it, and the merge.
func (x *restTracer) plainLayers(sn *core.Snapshot, req searchReq, child func(string, time.Duration) int) {
	w := x.w
	schema := x.col.Schema()

	shape := plan.QueryShape{NQ: 1, K: w.K, Dim: w.Dim, Nprobe: w.Nprobe, Workers: x.t.srv.db.Exec().Workers()}
	venue := plan.VenueFlatCPU
	for _, seg := range sn.Segments {
		switch mapped, tiered := seg.Mapped(); {
		case !tiered:
			shape.HotRows += seg.Rows()
		case mapped:
			shape.MappedRows += seg.Rows()
		default:
			shape.ColdRows += seg.Rows()
		}
		if seg.Index(0) != nil {
			venue = plan.VenueIVFCPU // how core labels any indexed snapshot
			if shape.Nlist == 0 {
				shape.Nlist = nlistOf(seg)
			}
		}
	}
	t0 := time.Now()
	x.planner.PlaceQuery(collection+"/f0", shape, venue)
	d := time.Since(t0)
	child("plan", d)

	sp := index.SearchParams{K: w.K, Nprobe: w.Nprobe}
	lists := make([][]topk.Result, 0, len(sn.Segments))
	var bytes float64
	for _, seg := range sn.Segments {
		h := topk.GetHeap(w.K)
		t0 = time.Now()
		seg.SearchInto(h, schema, 0, req.vec, sp)
		d := time.Since(t0)
		lists = append(lists, h.Snapshot())
		topk.PutHeap(h)
		indexSpan := child("index", d)

		// vec: the batch kernel over as many rows as this segment's search
		// computes distances for (all of a flat segment; the centroids
		// plus the probed share of an IVF one).
		rows := scannedRows(seg, w)
		t0 = time.Now()
		vec.L2SquaredBatch(req.vec, x.scratch[:rows*w.Dim], w.Dim, x.dists[:rows])
		kd := time.Since(t0)
		x.rec.Rebase(indexSpan, "vec", 0, kd)
		bytes += float64(rows) * float64(w.Dim) * 4
	}
	x.side.kernelBytes = append(x.side.kernelBytes, bytes)

	t0 = time.Now()
	topk.Merge(w.K, lists...)
	d = time.Since(t0)
	child("topk", d)
}

// scannedRows estimates the rows one segment's search computes distances
// for.
func scannedRows(seg *core.Segment, w Workload) int {
	rows, nlist := seg.Rows(), nlistOf(seg)
	if nlist == 0 {
		return rows
	}
	return min(rows, nlist+rows*w.Nprobe/nlist)
}

// nlistOf is the bucket count of the segment's inverted-file index, 0 when
// it has none. Tiered segments wrap their index; Unwrap reaches it.
func nlistOf(seg *core.Segment) int {
	idx := seg.Index(0)
	if u, ok := idx.(interface{ Unwrap() index.Index }); ok {
		idx = u.Unwrap()
	}
	if nl, ok := idx.(interface{ Nlist() int }); ok {
		return nl.Nlist()
	}
	return 0
}

// filteredLayers replays a range-filtered query's layers the way
// SearchFilteredCtx runs them: strategy choice, then either the bitset
// compile and the pushed-down search (strategy B) or the attribute-first
// exact scan (strategy A, span "query").
func (x *restTracer) filteredLayers(sn *core.Snapshot, req searchReq, child func(string, time.Duration) int) {
	w := x.w
	src := x.col.Source()
	defer src.Release()
	rc := query.RangeCond{Attr: 0, Lo: req.lo, Hi: req.hi}
	vc := query.VecCond{Field: 0, Query: req.vec, K: w.K, Nprobe: w.Nprobe}

	t0 := time.Now()
	strat, _ := query.PickStrategy(x.planner, src, rc, vc)
	d := time.Since(t0)
	child("plan", d)

	if total := src.TotalRows(); total > 0 {
		x.side.selectivity = append(x.side.selectivity, float64(src.CountRange(0, req.lo, req.hi))/float64(total))
	}
	if strat == query.StratA {
		t0 = time.Now()
		query.StrategyA(src, rc, vc)
		child("query", time.Since(t0))
		return
	}
	t0 = time.Now()
	pf, ok := src.CompileRange(0, req.lo, req.hi)
	d = time.Since(t0)
	if !ok {
		return
	}
	defer pf.Release()
	child("colstore", d)

	t0 = time.Now()
	hits := src.VectorQueryPushed(0, req.vec, w.K, w.Nprobe, pf)
	d = time.Since(t0)
	indexSpan := child("index", d)

	// vec under it: the kernel over the matching share of the probed rows.
	rows := 0
	for _, seg := range sn.Segments {
		rows += int(float64(scannedRows(seg, w)) * pf.Selectivity())
	}
	rows = min(rows, w.Rows)
	t0 = time.Now()
	vec.L2SquaredBatch(req.vec, x.scratch[:rows*w.Dim], w.Dim, x.dists[:rows])
	kd := time.Since(t0)
	x.rec.Rebase(indexSpan, "vec", 0, kd)
	x.side.kernelBytes = append(x.side.kernelBytes, float64(rows)*float64(w.Dim)*4)

	// topk under it: merging the answer split into one list per segment.
	lists := make([][]topk.Result, max(1, len(sn.Segments)))
	for i, h := range hits {
		lists[i%len(lists)] = append(lists[i%len(lists)], h)
	}
	t0 = time.Now()
	topk.Merge(w.K, lists...)
	md := time.Since(t0)
	x.rec.Rebase(indexSpan, "topk", kd, md)
}

// clusterTracer traces the cluster workload: a live "cluster" span around
// the router, and under it one replayed "reader" span per reader's
// SearchOwnedCtx — side by side, as the router runs them.
type clusterTracer struct {
	t    *clusterTarget
	w    Workload
	rec  *benchkit.Recorder
	side sideNumbers
}

func (x *clusterTracer) sideChannel() sideNumbers { return x.side }

func (x *clusterTracer) live(request int, req searchReq) (int, error) {
	root := x.rec.Start(request, 0, "cluster")
	_, err := x.t.search(0, x.w, req)
	x.rec.End(root)
	return root, err
}

func (x *clusterTracer) replay(root int, req searchReq) error {
	ctx := context.Background()
	cl := x.t.cl
	version, err := cl.Coord.ManifestVersion(collection)
	if err != nil {
		return err
	}
	ring, err := cl.Coord.Ring()
	if err != nil {
		return err
	}
	opts := core.SearchOptions{K: x.w.K, Nprobe: x.w.Nprobe}
	rf := &cluster.RangeFilter{Attr: attrField, Lo: req.lo, Hi: req.hi}
	for _, id := range ring.Members() {
		r, ok := cl.Reader(id)
		if !ok {
			return fmt.Errorf("reader %s gone", id)
		}
		t0 := time.Now()
		if _, err := r.SearchOwnedCtx(ctx, collection, version, ring, req.vec, opts, rf); err != nil {
			return err
		}
		x.rec.Rebase(root, "reader", 0, time.Since(t0))
	}
	x.side.selectivity = append(x.side.selectivity, float64(req.hi-req.lo+1)/attrUpper)
	return nil
}

// layerMetrics turns the spans into the traced per-layer metrics: per
// layer the median over requests of its self time, each layer's share of
// the root's median, and what the parts fail to add up to.
func layerMetrics(res *Result, w Workload, spans []benchkit.Span, side sideNumbers) {
	layers := benchkit.Layers(spans)
	self := func(name string) float64 {
		if l := layers[name]; l != nil {
			return benchkit.Median(l.Self)
		}
		return 0
	}
	total := func(name string) float64 {
		if l := layers[name]; l != nil {
			return benchkit.Median(l.Total)
		}
		return 0
	}
	root := "client"
	if w.Cluster {
		root = "cluster"
	}
	rootMed := total(root)

	names := make([]string, 0, len(layers))
	for name := range layers {
		names = append(names, name)
	}
	sort.Strings(names)
	var sum float64
	var shares []string
	for _, name := range names {
		sum += self(name)
		shares = append(shares, fmt.Sprintf("%s=%.3f", name, ratio(self(name), rootMed)))
	}
	res.Info["trace.self_share"] = strings.Join(shares, " ")
	res.Info["trace.requests"] = fmt.Sprint(len(layers[root].Total))

	pl := res.PerLayer
	for _, name := range []string{"client", "rest", "core", "query"} {
		pl[name+".self_us"] = Metric{self(name), "us"}
	}
	pl["trace.root_us"] = Metric{rootMed, "us"}
	pl["trace.residual_share"] = Metric{ratio(math.Abs(rootMed-sum), rootMed), "fraction"}
	pl["trace.overhead_share"] = Metric{ratio(rootMed/1000, res.EndToEnd["p50_ms"].Value) - 1, "fraction"}

	pl["plan.place_us"] = Metric{total("plan"), "us"}
	pl["index.search_us"] = Metric{total("index"), "us"}
	pl["vec.kernel_us"] = Metric{total("vec"), "us"}
	// Computed bytes = rows × dim × 4 of the replayed kernel call, not
	// bytes the memory system moved.
	pl["vec.gb_per_s"] = Metric{ratio(benchkit.Median(side.kernelBytes)/1e9, total("vec")/1e6), "GB/s"}
	pl["topk.merge_us"] = Metric{total("topk"), "us"}
	pl["colstore.compile_us"] = Metric{total("colstore"), "us"}
	pl["exec.empty_map_us"] = Metric{total("exec"), "us"}
	mean := 0.0
	for _, s := range side.selectivity {
		mean += s / float64(len(side.selectivity))
	}
	pl["filter.selectivity"] = Metric{mean, "fraction"}
	pl["cluster.router_self_us"] = Metric{self("cluster"), "us"}
	pl["cluster.reader_sum_us"] = Metric{total("reader"), "us"}
}

// programStages is the program's own stage breakdown of its most recent
// queries (db.QueryLog), as a cross-check beside the external spans: the
// median duration per stage name.
func programStages(db *core.DB) string {
	per := map[string][]float64{}
	for _, s := range db.QueryLog().Recent() {
		for stage, d := range s.StageBreakdown() {
			per[stage] = append(per[stage], usOf(d))
		}
	}
	names := make([]string, 0, len(per))
	for n := range per {
		names = append(names, n)
	}
	sort.Strings(names)
	var parts []string
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s=%.1fus", n, benchkit.Median(per[n])))
	}
	return strings.Join(parts, " ")
}
