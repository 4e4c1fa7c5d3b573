package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"vectordb/client"
	"vectordb/e2ebench/benchkit"
	"vectordb/internal/cluster"
	"vectordb/internal/core"
	"vectordb/internal/objstore"
	"vectordb/internal/obs"
	"vectordb/internal/topk"
)

const (
	collection = "bench"
	vecField   = "v"
	attrField  = "a"
)

// target is a set-up collection behind the surface its workload drives:
// the REST socket, or the in-process cluster router.
type target interface {
	// search sends one generated search on connection conn.
	search(conn int, w Workload, req searchReq) ([]client.Result, error)
	// scrape reads the program's own counters.
	scrape() (benchkit.Series, error)
	close() error
}

// restTarget is a server plus one SDK client per connection.
type restTarget struct {
	srv     *server
	clients []*client.Client
	trs     []*http.Transport
}

// setupREST brings a collection up through the public REST surface and
// returns how long that took: create → ingest in ingestRows batches →
// flush → wait for the index builder → first successful search (which also
// forces the planner's lazy calibration). conns is how many connections
// the workload will use.
func setupREST(w Workload, in *inputs, opt serverOptions, conns int) (*restTarget, time.Duration, error) {
	srv, err := startServer(opt)
	if err != nil {
		return nil, 0, err
	}
	t := &restTarget{srv: srv}
	for i := 0; i < conns; i++ {
		c, tr := srv.newClient(false)
		t.clients, t.trs = append(t.clients, c), append(t.trs, tr)
	}
	t0 := time.Now()
	if err := t.ingest(w, in); err != nil {
		t.close()
		return nil, 0, err
	}
	return t, time.Since(t0), nil
}

func (t *restTarget) ingest(w Workload, in *inputs) error {
	// The SDK's CreateCollection cannot name an index, the REST endpoint
	// can; everything after this one request goes through the SDK.
	create := map[string]any{
		"name":          collection,
		"vector_fields": []client.VectorField{{Name: vecField, Dim: w.Dim, Metric: "L2"}},
		"index_type":    w.Index,
	}
	if w.Attr {
		create["attr_fields"] = []string{attrField}
	}
	if w.Nlist > 0 {
		create["index_params"] = map[string]string{"nlist": strconv.Itoa(w.Nlist)}
	}
	body, err := json.Marshal(create)
	if err != nil {
		return err
	}
	resp, err := http.Post(t.srv.base+"/collections", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("create collection: HTTP %d", resp.StatusCode)
	}
	c := t.clients[0]
	for lo := 0; lo < w.Rows; lo += ingestRows {
		hi := min(lo+ingestRows, w.Rows)
		batch := make([]client.Entity, 0, hi-lo)
		for i := lo; i < hi; i++ {
			e := client.Entity{ID: int64(i), Vectors: [][]float32{in.data[i*w.Dim : (i+1)*w.Dim]}}
			if w.Attr {
				e.Attrs = []int64{in.attrs[i]}
			}
			batch = append(batch, e)
		}
		if err := c.Insert(collection, batch); err != nil {
			return err
		}
	}
	if err := c.Flush(collection); err != nil {
		return err
	}
	col, err := t.srv.db.Collection(collection)
	if err != nil {
		return err
	}
	col.WaitIndexed()
	_, err = t.search(0, w, in.searches[0])
	return err
}

func (t *restTarget) search(conn int, w Workload, req searchReq) ([]client.Result, error) {
	opts := &client.SearchOptions{Nprobe: w.Nprobe}
	if w.Filter {
		opts.Filter = &client.Filter{Attr: attrField, Lo: req.lo, Hi: req.hi}
	}
	return t.clients[conn].Search(collection, req.vec, w.K, opts)
}

// write runs one writer tick on connection conn: insert, then delete.
func (t *restTarget) write(conn int, w Workload, op writeOp) error {
	batch := make([]client.Entity, len(op.attrs))
	for i := range batch {
		batch[i] = client.Entity{
			ID:      op.firstID + int64(i),
			Vectors: [][]float32{op.vecs[i*w.Dim : (i+1)*w.Dim]},
			Attrs:   []int64{op.attrs[i]},
		}
	}
	if err := t.clients[conn].Insert(collection, batch); err != nil {
		return err
	}
	return t.clients[conn].Delete(collection, op.deletes)
}

func (t *restTarget) scrape() (benchkit.Series, error) { return t.srv.scrape() }

func (t *restTarget) close() error {
	for _, tr := range t.trs {
		tr.CloseIdleConnections()
	}
	return t.srv.stop()
}

// clusterTarget is the in-process distributed deployment: one writer and
// two readers over a shared in-memory object store. It has no REST
// surface; traffic calls the router, Cluster.SearchFilteredCtx.
type clusterTarget struct {
	cl  *cluster.Cluster
	reg *obs.Registry
}

// setupCluster is setupREST for the cluster: create on the writer →
// ingest → flush (publishes the manifest) → wait for the writer's index
// builder → first successful search (readers load their shards and build
// their local indexes on it).
func setupCluster(w Workload, in *inputs) (*clusterTarget, time.Duration, error) {
	// The registries only make the vectordb_reader_* and writer series
	// readable; the configs are otherwise the zero values.
	reg := obs.NewRegistry()
	cl, err := cluster.NewCluster(objstore.NewMemory(), 2, core.Config{Obs: reg}, cluster.ReaderConfig{Obs: reg})
	if err != nil {
		return nil, 0, err
	}
	t := &clusterTarget{cl: cl, reg: reg}
	t0 := time.Now()
	if err := t.ingest(w, in); err != nil {
		t.close()
		return nil, 0, err
	}
	return t, time.Since(t0), nil
}

func (t *clusterTarget) ingest(w Workload, in *inputs) error {
	wr := t.cl.Writer()
	schema := core.Schema{
		VectorFields: []core.VectorField{{Name: vecField, Dim: w.Dim}},
		AttrFields:   []string{attrField},
	}
	if err := wr.CreateCollection(collection, schema); err != nil {
		return err
	}
	for lo := 0; lo < w.Rows; lo += ingestRows {
		hi := min(lo+ingestRows, w.Rows)
		batch := make([]core.Entity, 0, hi-lo)
		for i := lo; i < hi; i++ {
			batch = append(batch, core.Entity{
				ID:      int64(i),
				Vectors: [][]float32{in.data[i*w.Dim : (i+1)*w.Dim]},
				Attrs:   []int64{in.attrs[i]},
			})
		}
		if err := wr.Insert(collection, batch); err != nil {
			return err
		}
	}
	if err := wr.Flush(collection); err != nil {
		return err
	}
	col, err := wr.Collection(collection)
	if err != nil {
		return err
	}
	col.WaitIndexed()
	_, err = t.search(0, w, in.searches[0])
	return err
}

func (t *clusterTarget) search(_ int, w Workload, req searchReq) ([]client.Result, error) {
	rs, err := t.cl.SearchFilteredCtx(context.Background(), collection, req.vec,
		core.SearchOptions{K: w.K, Nprobe: w.Nprobe},
		&cluster.RangeFilter{Attr: attrField, Lo: req.lo, Hi: req.hi})
	return hits(rs), err
}

func hits(rs []topk.Result) []client.Result {
	out := make([]client.Result, len(rs))
	for i, r := range rs {
		out[i] = client.Result{ID: r.ID, Distance: r.Distance}
	}
	return out
}

func (t *clusterTarget) scrape() (benchkit.Series, error) {
	var buf bytes.Buffer
	if err := t.reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return benchkit.ParseSeries(buf.Bytes())
}

func (t *clusterTarget) close() error {
	col, err := t.cl.Writer().Collection(collection)
	if err != nil {
		return nil // never created
	}
	return col.Close()
}
