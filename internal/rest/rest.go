// Package rest implements the RESTful application interface of Sec. 2.1: a
// JSON/HTTP server over the core engine, mirrored by the Go SDK in the
// public client package (the paper also ships Python/Java/C++ SDKs over the
// same surface). The SDK's inserts and searches go as binary columns
// (ColumnsType); every other body, and every error reply, is JSON, read by
// json.Unmarshal and written by json.Marshal.
package rest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"vectordb/internal/core"
	"vectordb/internal/exec"
	"vectordb/internal/obs"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
	"vectordb/internal/wal"
)

// Wire types -------------------------------------------------------------

// VectorFieldJSON declares one vector field.
type VectorFieldJSON struct {
	Name   string `json:"name"`
	Dim    int    `json:"dim"`
	Metric string `json:"metric,omitempty"` // default "L2"
}

// CreateCollectionRequest is the body of POST /collections.
type CreateCollectionRequest struct {
	Name         string            `json:"name"`
	VectorFields []VectorFieldJSON `json:"vector_fields"`
	AttrFields   []string          `json:"attr_fields,omitempty"`
	CatFields    []string          `json:"cat_fields,omitempty"`
	IndexType    string            `json:"index_type,omitempty"`
	IndexParams  map[string]string `json:"index_params,omitempty"`
}

// EntityJSON is one entity on the wire.
type EntityJSON struct {
	ID      int64       `json:"id"`
	Vectors [][]float32 `json:"vectors"`
	Attrs   []int64     `json:"attrs,omitempty"`
	Cats    []string    `json:"cats,omitempty"`
}

// InsertRequest is the body of POST /collections/{name}/entities.
type InsertRequest struct {
	Entities []EntityJSON `json:"entities"`
}

// DeleteRequest is the body of POST /collections/{name}/delete.
type DeleteRequest struct {
	IDs []int64 `json:"ids"`
}

// FilterJSON is an attribute range constraint.
type FilterJSON struct {
	Attr string `json:"attr"`
	Lo   int64  `json:"lo"`
	Hi   int64  `json:"hi"`
}

// CatFilterJSON is a categorical IN constraint.
type CatFilterJSON struct {
	Attr   string   `json:"attr"`
	Values []string `json:"values"`
}

// SearchRequest is the body of POST /collections/{name}/search.
type SearchRequest struct {
	Field     string         `json:"field,omitempty"`
	Vector    []float32      `json:"vector,omitempty"`
	Vectors   [][]float32    `json:"vectors,omitempty"` // multi-vector query
	Weights   []float32      `json:"weights,omitempty"`
	K         int            `json:"k"`
	Nprobe    int            `json:"nprobe,omitempty"`
	Ef        int            `json:"ef,omitempty"`
	SearchL   int            `json:"search_l,omitempty"`
	Filter    *FilterJSON    `json:"filter,omitempty"`
	CatFilter *CatFilterJSON `json:"cat_filter,omitempty"`
}

// ResultJSON is one hit.
type ResultJSON struct {
	ID       int64   `json:"id"`
	Distance float32 `json:"distance"`
}

// SearchResponse is the reply of the search endpoint.
type SearchResponse struct {
	Results []ResultJSON `json:"results"`
}

// IndexRequest is the body of POST /collections/{name}/index.
type IndexRequest struct {
	Field  string            `json:"field"`
	Type   string            `json:"type"`
	Params map[string]string `json:"params,omitempty"`
}

// StatsResponse is the reply of GET /collections/{name}/stats.
type StatsResponse struct {
	Segments    int   `json:"segments"`
	TotalRows   int   `json:"total_rows"`
	LiveRows    int   `json:"live_rows"`
	Tombstones  int   `json:"tombstones"`
	SegmentRows []int `json:"segment_rows,omitempty"`
}

// ErrorResponse carries an error message.
type ErrorResponse struct {
	Error string `json:"error"`
}

// RejectedResponse is the 503 body when admission control sheds a search:
// the error plus the live pool pressure that caused the rejection, so a
// client can tell a saturated server from a transient blip and back off
// proportionally.
type RejectedResponse struct {
	Error      string `json:"error"`
	QueueDepth int    `json:"queue_depth"` // queries queued for a run slot
	Inflight   int    `json:"inflight"`    // queries holding a run slot (at most the pool's workers)
}

// Server -----------------------------------------------------------------

// ServerConfig tunes the REST server.
type ServerConfig struct {
	// QueryTimeout bounds each search request: the query's context expires
	// after this duration and the request answers 504. Zero means no
	// server-imposed deadline (the client disconnect still cancels).
	// Batching adds no wait of its own: a query queues for a run slot only
	// while every pool worker is busy, so only an overloaded server turns a
	// live query into a timeout.
	QueryTimeout time.Duration
}

// Server serves the REST API over a core database.
type Server struct {
	db  *core.DB
	cfg ServerConfig
	mux *http.ServeMux
}

// NewServer wraps db (a fresh in-memory database when nil) with default
// configuration.
func NewServer(db *core.DB) *Server {
	return NewServerWithConfig(db, ServerConfig{})
}

// NewServerWithConfig wraps db with explicit configuration.
func NewServerWithConfig(db *core.DB, cfg ServerConfig) *Server {
	if db == nil {
		db = core.NewDB(nil)
	}
	s := &Server{db: db, cfg: cfg, mux: http.NewServeMux()}
	s.mux.HandleFunc("/collections", s.handleCollections)
	s.mux.HandleFunc("/collections/", s.handleCollection)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/queries", s.handleDebugQueries)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

const jsonType = "application/json"

// writeJSON encodes v whole before answering code, so a value that does
// not encode answers 500 with an error body instead.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeBody(w, code, jsonType, b)
}

// writeBody answers code with the body b of type ctype under an exact
// Content-Length; a JSON body ends in the newline a json.Encoder writes.
func writeBody(w http.ResponseWriter, code int, ctype string, b []byte) {
	if ctype == jsonType {
		b = append(b, '\n')
	}
	h := w.Header()
	h.Set("Content-Type", ctype)
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(code)
	_, _ = w.Write(b) // a failed write is the client's disconnect
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, ErrorResponse{Error: err.Error()})
}

// maxBodyBytes caps every request body. The largest legitimate bodies are
// bulk inserts (4,096 rows × 128 dims is about 6 MB of JSON).
const maxBodyBytes = 64 << 20

// decodeBody reads the whole request body into v with json.Unmarshal,
// answering 413 when the body exceeds maxBodyBytes — at once when its
// Content-Length says so — and 400 when it does not parse, bytes after the
// JSON value included; false means the response has been written. A
// *(*wal.Batch) takes an insert body and a *query a search body, each
// columnar or JSON by its Content-Type.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	var body []byte
	var err error = &http.MaxBytesError{Limit: maxBodyBytes}
	if r.ContentLength <= maxBodyBytes {
		body, err = ReadBody(http.MaxBytesReader(w, r.Body, maxBodyBytes), r.ContentLength)
	}
	if err == nil {
		switch v := v.(type) {
		case **wal.Batch:
			*v, err = decodeInsert(body, r.Header.Get("Content-Type"))
		case *query:
			*v, err = decodeQuery(body, r.Header.Get("Content-Type"))
		default:
			err = json.Unmarshal(body, v)
		}
	}
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	writeErr(w, code, err)
	return false
}

// firstRead bounds the buffer ReadBody makes before a body has arrived.
const firstRead = 1 << 20

// ReadBody reads all of an HTTP body whose declared length is n: into a
// buffer of n bytes when n is at most firstRead, and otherwise into one
// that starts at firstRead and, each time it fills, is remade at twice the
// bytes arrived (n at most), so a Content-Length with nothing behind it
// holds at most firstRead. It then reads to the body's EOF, which is also
// what lets a client reuse the connection. A body of unknown length (n is
// -1, as when chunked), or of one past maxBodyBytes, is read as it comes.
func ReadBody(body io.Reader, n int64) ([]byte, error) {
	if n < 0 || n > maxBodyBytes {
		return io.ReadAll(body)
	}
	b := make([]byte, min(n, firstRead))
	for off := 0; ; {
		m, err := io.ReadFull(body, b[off:])
		if err != nil {
			return nil, err
		}
		if off += m; int64(off) == n {
			break
		}
		grown := make([]byte, min(2*int64(off), n))
		copy(grown, b)
		b = grown
	}
	if _, err := io.ReadFull(body, make([]byte, 1)); err != io.EOF {
		if err == nil {
			err = errors.New("rest: body longer than its Content-Length")
		}
		return nil, err
	}
	return b, nil
}

// requireMethod guards a handler to the given methods: on mismatch it
// answers 405 with an Allow header and a JSON error body, per RFC 9110.
func requireMethod(w http.ResponseWriter, r *http.Request, methods ...string) bool {
	for _, m := range methods {
		if r.Method == m {
			return true
		}
	}
	w.Header().Set("Allow", strings.Join(methods, ", "))
	writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("rest: method %s not allowed", r.Method))
	return false
}

// handleMetrics serves the registry in Prometheus text exposition format
// (version 0.0.4).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = s.db.Obs().WritePrometheus(w)
}

// DebugQueriesResponse is the reply of GET /debug/queries.
type DebugQueriesResponse struct {
	Total     int64              `json:"total"`
	SlowTotal int64              `json:"slow_total"`
	Recent    []obs.TraceSummary `json:"recent"`
	Slow      []obs.SlowQuery    `json:"slow"`
}

// handleDebugQueries dumps the query log: recent traces plus the slow-query
// ring, most recent first.
func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	ql := s.db.QueryLog()
	writeJSON(w, http.StatusOK, DebugQueriesResponse{
		Total:     ql.Total(),
		SlowTotal: ql.SlowTotal(),
		Recent:    ql.Recent(),
		Slow:      ql.Slow(),
	})
}

func (s *Server) handleCollections(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.db.ListCollections())
	case http.MethodPost:
		var req CreateCollectionRequest
		if !decodeBody(w, r, &req) {
			return
		}
		var schema core.Schema
		for _, f := range req.VectorFields {
			m := vec.L2
			if f.Metric != "" {
				var err error
				if m, err = vec.ParseMetric(f.Metric); err != nil {
					writeErr(w, http.StatusBadRequest, err)
					return
				}
			}
			schema.VectorFields = append(schema.VectorFields, core.VectorField{Name: f.Name, Dim: f.Dim, Metric: m})
		}
		schema.AttrFields = req.AttrFields
		schema.CatFields = req.CatFields
		cfg := core.Config{IndexType: req.IndexType, IndexParams: req.IndexParams}
		if _, err := s.db.CreateCollection(req.Name, schema, cfg); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"name": req.Name})
	default:
		requireMethod(w, r, http.MethodGet, http.MethodPost)
	}
}

// handleCollection routes /collections/{name}[/{action}].
func (s *Server) handleCollection(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/collections/")
	name, action, _ := strings.Cut(rest, "/")
	if name == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("rest: collection name required"))
		return
	}
	if action == "" {
		if !requireMethod(w, r, http.MethodDelete) {
			return
		}
		if err := s.db.DropCollection(name); err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"dropped": name})
		return
	}
	col, err := s.db.Collection(name)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	switch action {
	case "entities":
		s.handleInsert(w, r, col)
	case "delete":
		s.handleDelete(w, r, col)
	case "flush":
		if !requireMethod(w, r, http.MethodPost) {
			return
		}
		if err := col.Flush(); err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"flushed": name})
	case "search":
		s.handleSearch(w, r, col)
	case "index":
		s.handleIndex(w, r, col)
	case "stats":
		if !requireMethod(w, r, http.MethodGet) {
			return
		}
		st := col.Stats()
		writeJSON(w, http.StatusOK, StatsResponse{
			Segments: st.Segments, TotalRows: st.TotalRows, LiveRows: st.LiveRows,
			Tombstones: st.Tombstones, SegmentRows: st.SegmentRows,
		})
	default:
		writeErr(w, http.StatusNotFound, fmt.Errorf("rest: unknown action %q", action))
	}
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request, col *core.Collection) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var b *wal.Batch
	if !decodeBody(w, r, &b) {
		return
	}
	rows := b.Rows()
	if err := col.InsertBatch(b); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"inserted": rows})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request, col *core.Collection) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req DeleteRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := col.Delete(req.IDs); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"deleted": len(req.IDs)})
}

// searchStatus maps a search error to an HTTP status: admission rejection
// (pool overloaded), a pool shutting down and client cancellation answer
// 503, a server-imposed deadline answers 504, anything else is a bad
// request.
func searchStatus(err error) int {
	switch {
	case errors.Is(err, exec.ErrRejected), errors.Is(err, exec.ErrClosed), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusBadRequest
	}
}

// accepts reports whether r's Accept header lists the media type t.
func accepts(r *http.Request, t string) bool {
	for _, v := range r.Header.Values("Accept") {
		for v != "" {
			var item string
			item, v, _ = strings.Cut(v, ",")
			if mt, _, _ := strings.Cut(item, ";"); strings.EqualFold(strings.TrimSpace(mt), t) {
				return true
			}
		}
	}
	return false
}

// handleSearch answers a search body, columnar or JSON, with its hits: as
// columns when the request's Accept names ColumnsType, else as JSON. Its
// range and IN terms resolve through the schema, ANDed when both are set.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request, col *core.Collection) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var q query
	if !decodeBody(w, r, &q) {
		return
	}
	// The query context descends from the request context (client disconnect
	// cancels the query) with the server's per-query deadline layered on.
	ctx := r.Context()
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}
	var res core.Response
	var err error
	if q.Pred, err = col.Schema().Filter(q.rng, q.in); err == nil {
		res, err = col.Query(ctx, q.Request)
	}
	if err != nil {
		if errors.Is(err, exec.ErrRejected) {
			pool := s.db.Exec()
			writeJSON(w, searchStatus(err), RejectedResponse{
				Error:      err.Error(),
				QueueDepth: pool.Waiting(),
				Inflight:   pool.Inflight(),
			})
			return
		}
		writeErr(w, searchStatus(err), err)
		return
	}
	if accepts(r, ColumnsType) {
		b, err := encodeHits(res.Hits)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		writeBody(w, http.StatusOK, ColumnsType, b)
		return
	}
	writeJSON(w, http.StatusOK, searchResponse(res.Hits))
}

// searchResponse is the JSON reply to a search: a made list, never nil, so
// no hits encode as [].
func searchResponse(hits []topk.Result) SearchResponse {
	rs := make([]ResultJSON, len(hits))
	for i, h := range hits {
		rs[i] = ResultJSON(h)
	}
	return SearchResponse{Results: rs}
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request, col *core.Collection) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req IndexRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Field == "" {
		req.Field = col.Schema().VectorFields[0].Name
	}
	if err := col.BuildIndex(req.Field, req.Type, req.Params); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"indexed": req.Field, "type": req.Type})
}
