// Package client is the Go SDK for a vectordb server (Sec. 2.1 application
// interfaces): a thin typed wrapper over the RESTful API served by
// cmd/vectordbd. Bodies are JSON, but for inserts: a batch whose rows agree
// in shape goes as packed columns, Content-Type application/x-vectordb-columns.
package client

import (
	"bytes"
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

// do sends in as the body rest.Encode makes and decodes the whole JSON
// reply into out through rest's codec.
func (c *Client) do(method, path string, in, out any) error {
	var body []byte
	contentType := "application/json"
	if in != nil {
		var err error
		if body, contentType, err = rest.Encode(in); err != nil {
			return err
		}
	}
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	reply, err := rest.ReadBody(resp.Body, resp.ContentLength)
	if resp.StatusCode >= 400 {
		var e rest.ErrorResponse
		if err == nil && rest.Unmarshal(reply, &e) == nil && e.Error != "" {
			return fmt.Errorf("client: %s %s: %s", method, path, e.Error)
		}
		return fmt.Errorf("client: %s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if err != nil || out == nil {
		return err
	}
	return rest.Unmarshal(reply, out)
}

// Healthy reports whether the server answers its health check.
func (c *Client) Healthy() bool {
	return c.do(http.MethodGet, "/healthz", nil, &map[string]string{}) == nil
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
	return c.do(http.MethodPost, "/collections", rest.CreateCollectionRequest{
		Name: name, VectorFields: vectorFields, AttrFields: attrFields,
	}, nil)
}

// CreateCollectionFull creates a collection with categorical fields too.
func (c *Client) CreateCollectionFull(name string, vectorFields []VectorField, attrFields, catFields []string) error {
	return c.do(http.MethodPost, "/collections", rest.CreateCollectionRequest{
		Name: name, VectorFields: vectorFields, AttrFields: attrFields, CatFields: catFields,
	}, nil)
}

// DropCollection removes a collection.
func (c *Client) DropCollection(name string) error {
	return c.do(http.MethodDelete, "/collections/"+name, nil, nil)
}

// ListCollections lists collection names.
func (c *Client) ListCollections() ([]string, error) {
	var out []string
	err := c.do(http.MethodGet, "/collections", nil, &out)
	return out, err
}

// Insert appends entities (asynchronous; Flush makes them visible).
func (c *Client) Insert(collection string, entities []Entity) error {
	return c.do(http.MethodPost, "/collections/"+collection+"/entities", rest.InsertRequest{Entities: entities}, nil)
}

// Delete tombstones entities by ID.
func (c *Client) Delete(collection string, ids []int64) error {
	return c.do(http.MethodPost, "/collections/"+collection+"/delete", rest.DeleteRequest{IDs: ids}, nil)
}

// Flush blocks until pending writes are visible.
func (c *Client) Flush(collection string) error {
	return c.do(http.MethodPost, "/collections/"+collection+"/flush", nil, nil)
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

// Search runs a top-k vector query.
func (c *Client) Search(collection string, vector []float32, k int, opts *SearchOptions) ([]Result, error) {
	req := rest.SearchRequest{Vector: vector, K: k}
	if opts != nil {
		req.Field, req.Nprobe, req.Ef, req.SearchL, req.Filter = opts.Field, opts.Nprobe, opts.Ef, opts.SearchL, opts.Filter
		req.CatFilter = opts.CatFilter
	}
	var out rest.SearchResponse
	if err := c.do(http.MethodPost, "/collections/"+collection+"/search", req, &out); err != nil {
		return nil, err
	}
	return out.Results, nil
}

// SearchMulti runs a multi-vector query with weighted-sum aggregation.
func (c *Client) SearchMulti(collection string, vectors [][]float32, weights []float32, k int) ([]Result, error) {
	req := rest.SearchRequest{Vectors: vectors, Weights: weights, K: k}
	var out rest.SearchResponse
	if err := c.do(http.MethodPost, "/collections/"+collection+"/search", req, &out); err != nil {
		return nil, err
	}
	return out.Results, nil
}

// BuildIndex builds an index on a vector field.
func (c *Client) BuildIndex(collection, field, indexType string, params map[string]string) error {
	return c.do(http.MethodPost, "/collections/"+collection+"/index", rest.IndexRequest{Field: field, Type: indexType, Params: params}, nil)
}

// Stats fetches collection statistics.
func (c *Client) Stats(collection string) (rest.StatsResponse, error) {
	var out rest.StatsResponse
	err := c.do(http.MethodGet, "/collections/"+collection+"/stats", nil, &out)
	return out, err
}
