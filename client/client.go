// Package client is the Go SDK for a vectordb server (Sec. 2.1 application
// interfaces), a thin typed wrapper over the RESTful API of cmd/vectordbd.
// Searches and their hits, and insert batches whose rows agree in shape, go
// as packed little-endian columns (rest.ColumnsType); every other body, and
// every error reply, is JSON through encoding/json. Columns carry vector
// words as bits, so a binary fingerprint crosses whatever float its words
// read as; the server's schema judges values by field kind, and a NaN or
// ±Inf in a float field or a weight comes back as its 400. Hit distances
// are finite.
package client

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"

	"vectordb/internal/rest"
)

// Client talks to one vectordb server.
type Client struct {
	base string
	http *http.Client
}

// New creates a client for the server at base (e.g. "http://localhost:19530").
func New(base string) *Client {
	return &Client{base: base, http: http.DefaultClient}
}

// NewWithHTTPClient uses a custom *http.Client (timeouts, transports).
func NewWithHTTPClient(base string, hc *http.Client) *Client {
	return &Client{base: base, http: hc}
}

// do sends body under contentType, asking for the reply in that type, and
// hands a 2xx reply's bytes to decode (nil ignores them). An error reply is
// JSON whatever was asked for.
func (c *Client) do(method, path, contentType string, body []byte, decode func([]byte) error) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set("Accept", contentType)
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	reply, err := rest.ReadBody(resp.Body, resp.ContentLength)
	if resp.StatusCode >= 400 {
		var e rest.ErrorResponse
		if err == nil && json.Unmarshal(reply, &e) == nil && e.Error != "" {
			return fmt.Errorf("client: %s %s: %s", method, path, e.Error)
		}
		return fmt.Errorf("client: %s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if err != nil || decode == nil {
		return err
	}
	return decode(reply)
}

// call sends in as the body rest.Encode makes (none when in is nil) and
// decodes the JSON reply into out (not at all when out is nil).
func (c *Client) call(method, path string, in, out any) error {
	var body []byte
	contentType := "application/json"
	if in != nil {
		var err error
		if body, contentType, err = rest.Encode(in); err != nil {
			return err
		}
	}
	var decode func([]byte) error
	if out != nil {
		decode = func(reply []byte) error { return json.Unmarshal(reply, out) }
	}
	return c.do(method, path, contentType, body, decode)
}

// Healthy reports whether the server answers its health check.
func (c *Client) Healthy() bool {
	return c.call(http.MethodGet, "/healthz", nil, &map[string]string{}) == nil
}

// VectorField declares one vector field when creating a collection.
type VectorField = rest.VectorFieldJSON

// Entity is one row on the wire.
type Entity = rest.EntityJSON

// Filter is an attribute range constraint.
type Filter = rest.FilterJSON

// Result is one search hit.
type Result = rest.ResultJSON

// CreateCollection creates a collection.
func (c *Client) CreateCollection(name string, vectorFields []VectorField, attrFields []string) error {
	return c.call(http.MethodPost, "/collections", rest.CreateCollectionRequest{
		Name: name, VectorFields: vectorFields, AttrFields: attrFields,
	}, nil)
}

// CreateCollectionFull creates a collection with categorical fields too.
func (c *Client) CreateCollectionFull(name string, vectorFields []VectorField, attrFields, catFields []string) error {
	return c.call(http.MethodPost, "/collections", rest.CreateCollectionRequest{
		Name: name, VectorFields: vectorFields, AttrFields: attrFields, CatFields: catFields,
	}, nil)
}

// DropCollection removes a collection.
func (c *Client) DropCollection(name string) error {
	return c.call(http.MethodDelete, "/collections/"+name, nil, nil)
}

// ListCollections lists collection names.
func (c *Client) ListCollections() ([]string, error) {
	var out []string
	err := c.call(http.MethodGet, "/collections", nil, &out)
	return out, err
}

// Insert appends entities (asynchronous; Flush makes them visible).
func (c *Client) Insert(collection string, entities []Entity) error {
	return c.call(http.MethodPost, "/collections/"+collection+"/entities", rest.InsertRequest{Entities: entities}, nil)
}

// Delete tombstones entities by ID.
func (c *Client) Delete(collection string, ids []int64) error {
	return c.call(http.MethodPost, "/collections/"+collection+"/delete", rest.DeleteRequest{IDs: ids}, nil)
}

// Flush blocks until pending writes are visible.
func (c *Client) Flush(collection string) error {
	return c.call(http.MethodPost, "/collections/"+collection+"/flush", nil, nil)
}

// SearchOptions tunes a query.
type SearchOptions struct {
	Field     string
	Nprobe    int
	Ef        int
	SearchL   int
	Filter    *Filter
	CatFilter *rest.CatFilterJSON
}

// Search runs a top-k vector query. With both a Filter and a CatFilter, a
// hit matches both.
func (c *Client) Search(collection string, vector []float32, k int, opts *SearchOptions) ([]Result, error) {
	req := rest.SearchRequest{Vector: vector, K: k}
	if opts != nil {
		req.Field, req.Nprobe, req.Ef, req.SearchL, req.Filter = opts.Field, opts.Nprobe, opts.Ef, opts.SearchL, opts.Filter
		req.CatFilter = opts.CatFilter
	}
	return c.search(collection, req)
}

// SearchMulti runs a multi-vector query with weighted-sum aggregation.
func (c *Client) SearchMulti(collection string, vectors [][]float32, weights []float32, k int) ([]Result, error) {
	return c.search(collection, rest.SearchRequest{Vectors: vectors, Weights: weights, K: k})
}

// search posts req as a columnar search body and decodes the columnar hits.
func (c *Client) search(collection string, req rest.SearchRequest) (hits []Result, err error) {
	body, err := rest.EncodeSearch(req)
	if err != nil {
		return nil, err
	}
	err = c.do(http.MethodPost, "/collections/"+collection+"/search", rest.ColumnsType, body, func(reply []byte) (err error) {
		hits, err = rest.DecodeHits(reply)
		return err
	})
	return hits, err
}

// BuildIndex builds an index on a vector field.
func (c *Client) BuildIndex(collection, field, indexType string, params map[string]string) error {
	return c.call(http.MethodPost, "/collections/"+collection+"/index", rest.IndexRequest{Field: field, Type: indexType, Params: params}, nil)
}

// Stats fetches collection statistics.
func (c *Client) Stats(collection string) (rest.StatsResponse, error) {
	var out rest.StatsResponse
	err := c.call(http.MethodGet, "/collections/"+collection+"/stats", nil, &out)
	return out, err
}
