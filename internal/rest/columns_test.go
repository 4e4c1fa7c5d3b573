package rest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vectordb/internal/core"
	"vectordb/internal/dataset"
	"vectordb/internal/topk"
	"vectordb/internal/wal"
)

// columnsBatch is an insert of n rows over two vector fields, two
// attributes and two categories, holding the edge values: ids at both
// int64 ends, −0, subnormal and extreme floats, empty strings and
// invalid UTF-8.
func columnsBatch(n int) []EntityJSON {
	sub := math.Float32frombits(1)
	negZero := float32(math.Copysign(0, -1))
	cats := []string{"", "red", "a\xffb", "\xc3", "é<>", "\xed\xa0\x80"}
	es := make([]EntityJSON, n)
	for i := range es {
		id := int64(i*7919) - 3
		switch i {
		case 0:
			id = math.MinInt64
		case 1:
			id = math.MaxInt64
		}
		es[i] = EntityJSON{
			ID: id,
			Vectors: [][]float32{
				{float32(i) / 3, negZero, sub * float32(i+1)},
				{-math.MaxFloat32 / float32(i+1), math.SmallestNonzeroFloat32 * 3},
			},
			Attrs: []int64{math.MinInt64 + int64(i), int64(i % 3)},
			Cats:  []string{cats[i%len(cats)], cats[(i+1)%len(cats)]},
		}
	}
	return es
}

// columnsSchema is columnsBatch's collection.
var columnsSchema = CreateCollectionRequest{
	VectorFields: []VectorFieldJSON{{Name: "v", Dim: 3}, {Name: "w", Dim: 2, Metric: "IP"}},
	AttrFields:   []string{"a", "b"},
	CatFields:    []string{"c", "d"},
}

// post sends body under contentType to h and returns the status.
func post(h http.Handler, path, contentType string, body []byte) int {
	return postReply(h, path, contentType, body).Code
}

// postReply sends body under contentType to h and returns the reply.
func postReply(h http.Handler, path, contentType string, body []byte) *httptest.ResponseRecorder {
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	r.Header.Set("Content-Type", contentType)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

func mustColumns(t testing.TB, es []EntityJSON) []byte {
	t.Helper()
	b, err := encodeColumns(es)
	if err != nil {
		t.Fatalf("%d rows do not encode as columns: %v", len(es), err)
	}
	return b
}

// TestInsertColumnsWriteRows: the SDK's insert encoder, which writes the
// rows straight into the body, gives the bytes of gathering them into a
// batch first and encoding that (AppendBody(Columns(rows))), with each
// invalid UTF-8 byte of a category as U+FFFD, and leaves the rows as they
// were.
func TestInsertColumnsWriteRows(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7} {
		es := columnsBatch(n)
		want := slices.Clone(es)
		for i := range want {
			want[i].Cats = slices.Clone(want[i].Cats)
			for j, s := range want[i].Cats {
				want[i].Cats[j] = string([]rune(s))
			}
		}
		b, err := core.Columns(entities(want))
		if err != nil {
			t.Fatal(err)
		}
		wantBody, err := wal.AppendBody(nil, b)
		if err != nil {
			t.Fatal(err)
		}
		if got := mustColumns(t, es); !bytes.Equal(got, wantBody) {
			t.Fatalf("%d rows: %x, want %x", n, got, wantBody)
		}
		if again := columnsBatch(n); !slices.EqualFunc(es, again, func(a, b EntityJSON) bool { return slices.Equal(a.Cats, b.Cats) }) {
			t.Fatalf("%d rows: the encoder changed the rows' categories", n)
		}
	}
}

// sameFloats compares bit patterns, so −0 is not 0.
func sameFloats(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func sameEntity(a, b *core.Entity) bool {
	if a.ID != b.ID || len(a.Vectors) != len(b.Vectors) || !slices.Equal(a.Attrs, b.Attrs) || !slices.Equal(a.Cats, b.Cats) {
		return false
	}
	for f := range a.Vectors {
		if !sameFloats(a.Vectors[f], b.Vectors[f]) {
			return false
		}
	}
	return true
}

// TestInsertColumnsMatchJSON: one batch inserted as a JSON body into one
// collection and as a columnar body into another stores identical
// entities, bit for bit, and every search answers identically.
func TestInsertColumnsMatchJSON(t *testing.T) {
	db := core.NewDB(nil)
	h := NewServer(db)
	cols := map[string]*core.Collection{}
	for _, name := range []string{"json", "cols"} {
		req := columnsSchema
		req.Name = name
		b, _ := json.Marshal(req)
		if code := post(h, "/collections", "application/json", b); code != http.StatusCreated {
			t.Fatalf("create %s: %d", name, code)
		}
		cols[name], _ = db.Collection(name)
	}
	for _, n := range []int{0, 1, 97} {
		es := columnsBatch(n)
		jsonBody, err := json.Marshal(InsertRequest{Entities: es})
		if err != nil {
			t.Fatal(err)
		}
		if code := post(h, "/collections/json/entities", "application/json", jsonBody); code != http.StatusOK {
			t.Fatalf("%d rows as JSON: %d", n, code)
		}
		if code := post(h, "/collections/cols/entities", ColumnsType, mustColumns(t, es)); code != http.StatusOK {
			t.Fatalf("%d rows as columns: %d", n, code)
		}
	}
	for _, c := range cols {
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := cols["json"].Count(), cols["cols"].Count(); a != 98 || b != a {
		t.Fatalf("JSON collection holds %d rows, columnar %d; want 98", a, b)
	}
	for _, e := range columnsBatch(97) {
		a, okA := cols["json"].Get(e.ID)
		b, okB := cols["cols"].Get(e.ID)
		if !okA || !okB || !sameEntity(a, b) {
			t.Fatalf("id %d: JSON stored %+v (%v), columns stored %+v (%v)", e.ID, a, okA, b, okB)
		}
	}
	ctx := context.Background()
	search := map[string]func(*core.Collection, []float32) ([]topk.Result, error){
		"v": func(c *core.Collection, q []float32) ([]topk.Result, error) {
			return c.SearchCtx(ctx, q, core.SearchOptions{Field: "v", K: 10})
		},
		"w": func(c *core.Collection, q []float32) ([]topk.Result, error) {
			return c.SearchCtx(ctx, q, core.SearchOptions{Field: "w", K: 10})
		},
		"filtered": func(c *core.Collection, q []float32) ([]topk.Result, error) {
			return c.SearchFilteredCtx(ctx, q, "b", 1, 1, core.SearchOptions{Field: "v", K: 10})
		},
		"categorical": func(c *core.Collection, q []float32) ([]topk.Result, error) {
			pred, err := c.Schema().InPred("c", []string{"", "a�b", "���"})
			if err != nil {
				return nil, err
			}
			res, err := c.Query(ctx, core.Request{Vector: q, Pred: pred, SearchOptions: core.SearchOptions{Field: "v", K: 10}})
			return res.Hits, err
		},
	}
	for name, run := range search {
		for _, q := range [][]float32{{1, 0, 0}, {5, -1, 2}, {0.5, 3}} {
			if (name == "w") != (len(q) == 2) {
				continue
			}
			a, errA := run(cols["json"], q)
			b, errB := run(cols["cols"], q)
			if errA != nil || errB != nil || len(a) == 0 || !slices.Equal(a, b) {
				t.Errorf("%s search %v: JSON %v (%v), columns %v (%v)", name, q, a, errA, b, errB)
			}
		}
	}
}

// TestInsertColumnsFailOnFirstNaN: Encode sends a batch holding a NaN or
// ±Inf as columns, which carry vector words as bits, and the server
// answers 400 naming the first entity, in entity order, holding one in a
// float field, wherever the values sit; nothing is inserted.
func TestInsertColumnsFailOnFirstNaN(t *testing.T) {
	db := core.NewDB(nil)
	h := NewServer(db)
	req := columnsSchema
	req.Name = "c"
	b, _ := json.Marshal(req)
	post(h, "/collections", "application/json", b)
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, c := range [][2]int{{0, 5}, {5, 0}, {3, 3}, {6, 1}} {
		es := columnsBatch(7)
		es[c[0]].Vectors[1][1] = nan
		es[c[1]].Vectors[0][2] = -inf
		body, ctype, err := Encode(InsertRequest{Entities: es})
		if err != nil || ctype != ColumnsType {
			t.Fatalf("NaN in row %d, -Inf in row %d: sent as %s, %v", c[0], c[1], ctype, err)
		}
		w := postReply(h, "/collections/c/entities", ctype, body)
		if want := fmt.Sprintf("entity %d ", es[min(c[0], c[1])].ID); w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), want) {
			t.Errorf("NaN in row %d, -Inf in row %d: %d %s; want 400 naming %q", c[0], c[1], w.Code, w.Body, want)
		}
	}
	col, _ := db.Collection("c")
	if err := col.Flush(); err != nil || col.Count() != 0 {
		t.Fatalf("refused batches left %d rows, %v", col.Count(), err)
	}
}

// TestInsertColumnsOnlyForUniformRows: a batch whose rows agree in shape
// goes as columns; a ragged one, or one with an empty vector, goes as
// JSON and the server names the entity at fault.
func TestInsertColumnsOnlyForUniformRows(t *testing.T) {
	h := NewServer(nil)
	req := columnsSchema
	req.Name = "c"
	b, _ := json.Marshal(req)
	post(h, "/collections", "application/json", b)
	if _, ctype, _ := Encode(InsertRequest{Entities: columnsBatch(4)}); ctype != ColumnsType {
		t.Fatalf("uniform batch sent as %s", ctype)
	}
	for name, c := range map[string]struct {
		bend func([]EntityJSON)
		id   string // the entity the server names
	}{
		"short vector": {func(es []EntityJSON) { es[2].Vectors[0] = es[2].Vectors[0][:2] }, "15835"},
		"missing attr": {func(es []EntityJSON) { es[2].Attrs = es[2].Attrs[:1] }, "15835"},
		"extra cat":    {func(es []EntityJSON) { es[2].Cats = append(es[2].Cats, "x") }, "15835"},
		"no vectors":   {func(es []EntityJSON) { es[2].Vectors = nil }, "15835"},
		// Uniform, but a column of empty vectors.
		"empty vectors": {func(es []EntityJSON) {
			for i := range es {
				es[i].Vectors[1] = []float32{}
			}
		}, "-9223372036854775808"},
	} {
		es := columnsBatch(4)
		c.bend(es)
		body, ctype, err := Encode(InsertRequest{Entities: es})
		if err != nil || ctype != "application/json" {
			t.Fatalf("%s: sent as %s, %v", name, ctype, err)
		}
		r := httptest.NewRequest(http.MethodPost, "/collections/c/entities", bytes.NewReader(body))
		r.Header.Set("Content-Type", ctype)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "entity "+c.id+" ") {
			t.Errorf("%s: %d %s; want 400 naming entity %s", name, w.Code, w.Body, c.id)
		}
	}
}

// TestRaggedWordsNameTheRow: a ragged insert batch whose binary words
// JSON cannot spell (0xFFFFFFFF is a NaN's bits) fails in Encode with the
// column encoder's error naming the ragged row, not with JSON's
// complaint about the NaN.
func TestRaggedWordsNameTheRow(t *testing.T) {
	word := math.Float32frombits(0xFFFFFFFF)
	_, ctype, err := Encode(InsertRequest{Entities: []EntityJSON{
		{ID: 1, Vectors: [][]float32{{word, math.Float32frombits(1)}}},
		{ID: 2, Vectors: [][]float32{{math.Float32frombits(1)}}},
	}})
	if err == nil || !strings.Contains(err.Error(), "row 1") || strings.Contains(err.Error(), "NaN") {
		t.Fatalf("sent as %q, error %v; want the ragged row named", ctype, err)
	}
}

// columnsMutants are columnar bodies the decoder must refuse.
func columnsMutants(t testing.TB) map[string][]byte {
	good := mustColumns(t, columnsBatch(5))
	header := func(rows, nv, na, nc uint32, dims ...uint32) []byte {
		b := []byte(wal.Magic)
		for _, n := range append([]uint32{rows, nv, na, nc}, dims...) {
			b = le.AppendUint32(b, n)
		}
		return b
	}
	edit := func(at int, bs ...byte) []byte {
		b := slices.Clone(good)
		copy(b[at:], bs)
		return b
	}
	ms := map[string][]byte{
		"bad magic":         edit(0, 'V', 'D', 'B', 'X'),
		"version 2":         edit(4, 2),
		"version 0":         edit(4, 0),
		"one trailing byte": append(slices.Clone(good), 0),
		// 2³¹ rows whose columns add up to 2⁶⁴ bytes, which wraps to the
		// 4 bytes of the dims or to none.
		"floats wrap to zero": header(1<<31, 1, 0, 0, 1<<31-2),
		"attrs wrap to zero":  header(1<<31, 0, 1<<30-1, 0),
		"cats wrap to zero":   header(1<<31, 0, 0, 1<<31-2),
		"ids overrun body":    append(header(math.MaxUint32, 0, 0, 0), make([]byte, 64)...),
		"dims overrun body":   header(1, math.MaxUint32, 0, 0),
		"zero dim":            append(header(1, 1, 0, 0, 0), make([]byte, 8)...),
		"fields without rows": header(0, 0, 1, 0),
		"cat overruns body":   append(append(header(1, 0, 0, 1), make([]byte, 8)...), 5, 0, 0, 0, 'a'),
		"invalid UTF-8 cat":   append(append(header(1, 0, 0, 1), make([]byte, 8)...), 1, 0, 0, 0, 0xff),
	}
	// Every float of both vector fields, as a NaN and as ±Inf.
	const floats = 5 * (3 + 2)
	start := len(wal.Magic) + 16 + 8 + 5*8 // the header, both dims, the ids
	for j := 0; j < floats; j++ {
		for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
			ms[fmt.Sprintf("%v at float %d", bad, j)] = edit(start+4*j, le.AppendUint32(nil, math.Float32bits(bad))...)
		}
	}
	for n := 0; n < len(good); n++ {
		ms[fmt.Sprintf("truncated at %d", n)] = good[:n]
	}
	return ms
}

// TestInsertColumnsRejected: the handler answers 400 to bad magic or
// version, a truncation at every byte, one trailing byte, counts whose
// products overflow or overrun the body, and a NaN or ±Inf anywhere, and
// inserts nothing.
func TestInsertColumnsRejected(t *testing.T) {
	db := core.NewDB(nil)
	h := NewServer(db)
	req := columnsSchema
	req.Name = "c"
	b, _ := json.Marshal(req)
	post(h, "/collections", "application/json", b)
	for name, body := range columnsMutants(t) {
		if code := post(h, "/collections/c/entities", ColumnsType, body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
	c, _ := db.Collection("c")
	if err := c.Flush(); err != nil || c.Count() != 0 {
		t.Fatalf("rejected bodies left %d rows, %v", c.Count(), err)
	}
	if code := post(h, "/collections/c/entities", ColumnsType, mustColumns(t, columnsBatch(5))); code != http.StatusOK {
		t.Fatalf("the unmutated body: status %d", code)
	}
}

// TestInsertColumnsHeaderAllocates: a 24-byte header claiming 2³²−1 rows
// answers 400 having allocated less than 1 MiB.
func TestInsertColumnsHeaderAllocates(t *testing.T) {
	h := NewServer(nil)
	b, _ := json.Marshal(CreateCollectionRequest{Name: "c", VectorFields: []VectorFieldJSON{{Name: "v", Dim: 2}}})
	post(h, "/collections", "application/json", b)
	body := le.AppendUint32([]byte(wal.Magic), math.MaxUint32)
	body = append(body, make([]byte, 12)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	code := post(h, "/collections/c/entities", ColumnsType, body)
	runtime.ReadMemStats(&after)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", code)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("allocated %d bytes for a 24-byte header", got)
	}
}

// FuzzInsertColumns: the server's decoder never panics, and every body it
// takes is exactly what the SDK's encoder writes for the rows it yields.
func FuzzInsertColumns(f *testing.F) {
	for _, n := range []int{0, 1, 6} {
		f.Add(mustColumns(f, columnsBatch(n)))
	}
	f.Add(mustColumns(f, []EntityJSON{{ID: 1}, {ID: 2}}))
	f.Add(mustColumns(f, []EntityJSON{{ID: 1, Attrs: []int64{7}}}))
	for _, body := range columnsMutants(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := decodeInsert(data, ColumnsType)
		if err != nil {
			return
		}
		es := rowsOf(b)
		again, err := encodeColumns(es)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("%x decodes to %+v, which encodes as %x (%v)", data, es, again, err)
		}
	})
}

// shardSeeds are JSON insert bodies of several entities: the SDK's
// encoding of a 12-row batch and every prefix of it, one with whitespace
// and keys in any order, rows of mixed shapes, and edge values.
func shardSeeds(t testing.TB) wireSeeds {
	var es []EntityJSON
	for i := 0; i < 12; i++ {
		es = append(es, EntityJSON{ID: int64(i), Vectors: [][]float32{{float32(i) / 3, -1e-7}},
			Attrs: []int64{int64(i)}, Cats: []string{"red", "a b"}})
	}
	sdk := mustMarshal(t, InsertRequest{Entities: es})
	s := wireSeeds{
		sdk,
		" {\n\"entities\" :\t[ {\"id\":1,\"vectors\":[[1]]} ,\n {\"vectors\":[[2,3]],\"id\":2} ,{ \"cats\":[\"c\"],\"attrs\":[4],\"id\":3 }\r\n,\n\t{\"attrs\":[],\"id\":4} ] \n}\t",
		`{"entities":[{"id":1},{"id":2},{"id":3},{"id":4}]}`,
		`{"entities":[{"id":1,"vectors":[[1,2]]},{"id":2,"vectors":[[3]]},{"id":3,"vectors":[[4]],"attrs":[5]},{"id":4,"vectors":[[]]}]}`,
		`{"entities":[{"id":-9223372036854775808,"vectors":[[-0,1e-45]],"cats":[""]},{"id":9223372036854775807,"vectors":[[3.4028235e38,0]],"cats":["\u00e9"]}]}`,
	}
	s.truncations(sdk)
	return s
}

// rowsOf is b's rows as the SDK holds them.
func rowsOf(b *wal.Batch) []EntityJSON {
	es := make([]EntityJSON, b.Rows())
	for i := range es {
		es[i].ID = b.IDs[i]
		for _, v := range b.Vectors {
			d := len(v) / b.Rows()
			es[i].Vectors = append(es[i].Vectors, v[i*d:(i+1)*d])
		}
		for _, col := range b.Attrs {
			es[i].Attrs = append(es[i].Attrs, col[i])
		}
		for _, col := range b.Cats {
			es[i].Cats = append(es[i].Cats, col[i])
		}
	}
	return es
}

// FuzzInsertShards: a JSON insert body the server takes, cut into 2–4
// shards and each shard encoded as the SDK sends it — columns when its
// rows can go as columns, JSON otherwise — decodes to the whole body's
// entities, bit for bit.
func FuzzInsertShards(f *testing.F) {
	for _, seeds := range []wireSeeds{insertRequestSeeds(f), shardSeeds(f)} {
		for _, body := range seeds {
			f.Add([]byte(body), uint8(len(body)))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, k uint8) {
		b, err := decodeInsert(data, "application/json")
		if err != nil {
			return
		}
		want := rowsOf(b)
		var got []EntityJSON
		for j, shards := 0, 2+int(k%3); j < shards; j++ {
			body, ctype, err := Encode(InsertRequest{Entities: want[j*len(want)/shards : (j+1)*len(want)/shards]})
			if err != nil {
				t.Fatalf("%q: shard %d of %d does not encode: %v", data, j, shards, err)
			}
			b, err := decodeInsert(body, ctype)
			if err != nil {
				t.Fatalf("%q: shard %d of %d, sent as %s, does not decode: %v", data, j, shards, ctype, err)
			}
			got = append(got, rowsOf(b)...)
		}
		if len(got) != len(want) {
			t.Fatalf("%q: %d entities in shards, %d in the body", data, len(got), len(want))
		}
		for i := range want {
			if !sameEntity((*core.Entity)(&got[i]), (*core.Entity)(&want[i])) {
				t.Fatalf("%q: entity %d is %+v in shards, %+v in the body", data, i, got[i], want[i])
			}
		}
	})
}

// postWire posts v as JSON to url and returns the response body, failing t
// unless the status is 2xx.
func postWire(t *testing.T, url string, v any) []byte {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Error(err)
		return nil
	}
	return postBody(t, url, "application/json", body)
}

// postInsert posts es as the SDK does, as columns.
func postInsert(t *testing.T, url string, es []EntityJSON) {
	t.Helper()
	body, ctype, err := Encode(InsertRequest{Entities: es})
	if err != nil || ctype != ColumnsType {
		t.Errorf("%d rows encoded as %s, %v", len(es), ctype, err)
		return
	}
	postBody(t, url, ctype, body)
}

func postBody(t *testing.T, url, contentType string, body []byte) []byte {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return nil
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode/100 != 2 {
		t.Errorf("POST %s: HTTP %d %s %v", url, resp.StatusCode, out, err)
	}
	return out
}

// wireRows is an insert of rows entities with IDs from first on, each
// vector distinct from every other ID's.
func wireRows(first, rows int) []EntityJSON {
	es := make([]EntityJSON, rows)
	for i := range es {
		id := first + i
		v := make([]float32, 64)
		for j := range v {
			v[j] = float32(id*64+j) / 8191
		}
		es[i] = EntityJSON{ID: int64(id), Vectors: [][]float32{v}, Attrs: []int64{int64(id)}}
	}
	return es
}

// TestLargeInsertsBesideSearches: searches keep answering, and answering
// right, while large columnar insert bodies decode beside them.
func TestLargeInsertsBesideSearches(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	srv := httptest.NewServer(NewServer(nil))
	t.Cleanup(srv.Close)
	postWire(t, srv.URL+"/collections", CreateCollectionRequest{Name: "c", VectorFields: []VectorFieldJSON{{Name: "v", Dim: 64}}, AttrFields: []string{"a"}})
	postInsert(t, srv.URL+"/collections/c/entities", wireRows(0, 128))
	postWire(t, srv.URL+"/collections/c/flush", struct{}{})
	query := SearchRequest{Field: "v", Vector: wireRows(5, 1)[0].Vectors[0], K: 3}
	var inserting, searching sync.WaitGroup
	for w := 0; w < 2; w++ {
		inserting.Add(1)
		go func() {
			defer inserting.Done()
			for i := 0; i < 3; i++ {
				postInsert(t, srv.URL+"/collections/c/entities", wireRows(1000+(w*3+i)*2048, 2048))
			}
		}()
	}
	done := make(chan struct{})
	var searches atomic.Int64
	for w := 0; w < 2; w++ {
		searching.Add(1)
		go func() {
			defer searching.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var resp SearchResponse
				if err := json.Unmarshal(postWire(t, srv.URL+"/collections/c/search", query), &resp); err != nil ||
					len(resp.Results) == 0 || resp.Results[0].ID != 5 || resp.Results[0].Distance != 0 {
					t.Errorf("search beside inserts: %+v, %v; want id 5 first at distance 0", resp, err)
					return
				}
				searches.Add(1)
			}
		}()
	}
	inserting.Wait()
	close(done)
	searching.Wait()
	if searches.Load() == 0 {
		t.Error("no search finished while the inserts ran")
	}
}

// BenchmarkInsertWire: scan.flat's ingest request, 4,096 SIFT-like rows
// of 128 dims, encoded and decoded as the columnar body the SDK sends.
// BenchmarkWireInsert4096x128 times the same rows as a JSON body.
func BenchmarkInsertWire(b *testing.B) {
	d := dataset.SIFTLike(4096, 1)
	es := make([]EntityJSON, d.N)
	for i := range es {
		es[i] = EntityJSON{ID: int64(i), Vectors: [][]float32{d.Row(i)}}
	}
	body := mustColumns(b, es)
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, _, err := Encode(InsertRequest{Entities: es})
			if err != nil || len(out) != len(body) {
				b.Fatalf("%d bytes, %v; want %d", len(out), err, len(body))
			}
			wireSink = out
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows, err := wal.DecodeBody(body)
			if err != nil || rows.Rows() != d.N {
				b.Fatalf("decoding %d rows: %v", d.N, err)
			}
			wireSink = rows
		}
	})
}
