// Package rest implements the RESTful application interface of Sec. 2.1: a
// JSON/HTTP server over the core engine, mirrored by the Go SDK in the
// public client package (the paper also ships Python/Java/C++ SDKs over the
// same surface).
package rest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"vectordb/internal/core"
	"vectordb/internal/exec"
	"vectordb/internal/obs"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
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
	QueueDepth int    `json:"queue_depth"` // queries waiting for an admission slot
	Inflight   int    `json:"inflight"`    // queries currently executing
}

// Server -----------------------------------------------------------------

// ServerConfig tunes the REST server.
type ServerConfig struct {
	// QueryTimeout bounds each search request: the query's context expires
	// after this duration and the request answers 504. Zero means no
	// server-imposed deadline (the client disconnect still cancels).
	// Batching adds no wait of its own: a query parks in the batch former
	// only while every pool worker is busy, so only an overloaded server
	// turns a live query into a timeout.
	QueryTimeout time.Duration

	// BatchSize caps how many compatible queries one formed batch may
	// carry for collections created through this server (0 = engine
	// default; 1 turns server-side batching off).
	BatchSize int
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

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, ErrorResponse{Error: err.Error()})
}

// maxBodyBytes caps every request body. The largest legitimate bodies are
// bulk inserts (4,096 rows × 128 dims is about 6 MB of JSON).
const maxBodyBytes = 64 << 20

// decodeBody reads the request's JSON body into v, answering 413 when the
// body exceeds maxBodyBytes and 400 when it does not parse; false means the
// response has been written.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
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
		cfg := core.Config{
			IndexType: req.IndexType, IndexParams: req.IndexParams,
			BatchSize: s.cfg.BatchSize,
		}
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
	var req InsertRequest
	if !decodeBody(w, r, &req) {
		return
	}
	rows := make([]core.Entity, len(req.Entities))
	for i, e := range req.Entities {
		rows[i] = core.Entity{ID: e.ID, Vectors: e.Vectors, Attrs: e.Attrs, Cats: e.Cats}
	}
	if err := col.Insert(rows); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"inserted": len(rows)})
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
// (pool overloaded) and client cancellation answer 503, a server-imposed
// deadline answers 504, anything else is a bad request.
func searchStatus(err error) int {
	switch {
	case errors.Is(err, exec.ErrRejected), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request, col *core.Collection) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req SearchRequest
	if !decodeBody(w, r, &req) {
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
	opts := core.SearchOptions{Field: req.Field, K: req.K, Nprobe: req.Nprobe, Ef: req.Ef, SearchL: req.SearchL}
	var rs []topk.Result
	var err error
	switch {
	case len(req.Vectors) > 0: // multi-vector query (Sec. 4.2)
		rs, err = col.SearchMultiVectorCtx(ctx, req.Vectors, req.Weights, req.K)
	case req.CatFilter != nil: // categorical filtering (inverted lists)
		rs, err = col.SearchCategoricalCtx(ctx, req.Vector, req.CatFilter.Attr, req.CatFilter.Values, opts)
	case req.Filter != nil: // attribute filtering (Sec. 4.1)
		rs, err = col.SearchFilteredCtx(ctx, req.Vector, req.Filter.Attr, req.Filter.Lo, req.Filter.Hi, opts)
	default:
		rs, err = col.SearchCtx(ctx, req.Vector, opts)
	}
	if err != nil {
		if errors.Is(err, exec.ErrRejected) {
			pool := s.db.Exec()
			writeJSON(w, searchStatus(err), RejectedResponse{
				Error:      err.Error(),
				QueueDepth: int(pool.Waiting()),
				Inflight:   pool.Inflight(),
			})
			return
		}
		writeErr(w, searchStatus(err), err)
		return
	}
	results := make([]ResultJSON, 0, len(rs))
	for _, x := range rs {
		results = append(results, ResultJSON{ID: x.ID, Distance: x.Distance})
	}
	writeJSON(w, http.StatusOK, SearchResponse{Results: results})
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
