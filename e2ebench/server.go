package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"vectordb/client"
	"vectordb/e2ebench/benchkit"
	"vectordb/internal/core"
	"vectordb/internal/exec"
	"vectordb/internal/rest"
)

// requestIDHeader joins a client span to the server span of the same
// request: the benchmark's RoundTripper sets it, its handler reads it.
const requestIDHeader = "X-Bench-Request"

// server is the program under test, started in-process and wired exactly
// as cmd/vectordbd/main.go wires it — core.NewDB, optional EnableTiering,
// rest.NewServerWithConfig, an http.Server — but on a loopback port the
// kernel picks. Requests reach it over real TCP.
type server struct {
	db   *core.DB
	http *http.Server
	base string
	done chan struct{} // closed when Serve has returned

	// tracing, when set, makes the handler record a "rest" span per
	// request that carries requestIDHeader.
	rec     *benchkit.Recorder
	parents *spanParents
}

// serverOptions are the two ways a benchmark server differs from the
// daemon's defaults.
type serverOptions struct {
	tierDir    string // non-empty: EnableTiering under this directory
	cacheBytes int64
	oneWorker  bool               // traced pass: segment tasks must not overlap
	rec        *benchkit.Recorder // traced pass: record rest spans
}

func startServer(opt serverOptions) (*server, error) {
	var db *core.DB
	if opt.oneWorker {
		db = core.NewDBWithExec(nil, exec.Config{Workers: 1})
	} else {
		db = core.NewDB(nil)
	}
	if opt.tierDir != "" {
		db.EnableTiering(core.TierDefaults{Dir: opt.tierDir, CacheBytes: opt.cacheBytes})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, err
	}
	s := &server{
		db:      db,
		base:    "http://" + ln.Addr().String(),
		done:    make(chan struct{}),
		rec:     opt.rec,
		parents: &spanParents{},
	}
	var h http.Handler = rest.NewServerWithConfig(db, rest.ServerConfig{})
	if s.rec != nil {
		h = s.spanHandler(h)
	}
	s.http = &http.Server{Handler: h}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	return s, nil
}

// stop shuts the listener, waits for Serve to return and closes the DB.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	<-s.done
	if cerr := s.db.Close(); err == nil {
		err = cerr
	}
	return err
}

// newClient returns an SDK client with its own connection pool, so N
// clients are N TCP connections. A tagged client's requests carry
// requestIDHeader.
func (s *server) newClient(tagged bool) (*client.Client, *http.Transport) {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	var rt http.RoundTripper = tr
	if tagged {
		rt = tagTransport{next: tr, parents: s.parents}
	}
	return client.NewWithHTTPClient(s.base, &http.Client{Transport: rt}), tr
}

// scrape reads /metrics over the same socket an operator would.
func (s *server) scrape() (benchkit.Series, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	return benchkit.ParseSeries(body)
}

// spanParents hands the handler the client span of the request in flight.
// The traced pass is sequential, so one slot is enough.
type spanParents struct {
	request atomic.Int64 // ID of the request in flight
	span    atomic.Int64 // its client span
	rest    atomic.Int64 // the rest span the handler recorded for it
}

// spanHandler wraps the REST server: a request that names itself gets a
// "rest" span from first byte routed to handler return, as a child of its
// client span.
func (s *server) spanHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.Header.Get(requestIDHeader))
		if err != nil || int64(id) != s.parents.request.Load() {
			next.ServeHTTP(w, r)
			return
		}
		span := s.rec.Start(id, int(s.parents.span.Load()), "rest")
		next.ServeHTTP(w, r)
		s.rec.End(span)
		s.parents.rest.Store(int64(span))
	})
}

// tagTransport stamps the request in flight with its ID.
type tagTransport struct {
	next    http.RoundTripper
	parents *spanParents
}

func (t tagTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context()) // a RoundTripper must not modify the caller's request
	r.Header.Set(requestIDHeader, strconv.FormatInt(t.parents.request.Load(), 10))
	return t.next.RoundTrip(r)
}
