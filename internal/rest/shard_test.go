package rest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vectordb/internal/core"
	"vectordb/internal/dataset"
)

// shardRequest is an insert of n entities with every member shape the
// encoder writes: several vectors, nil and empty lists, attributes, and
// categories that need escaping or hold a guessed cut's bytes.
func shardRequest(n int) InsertRequest {
	r := InsertRequest{Entities: make([]EntityJSON, n)}
	for i := range r.Entities {
		e := EntityJSON{ID: int64(i*7919) - 3, Vectors: [][]float32{{float32(i) / 3, -1e-7, 1e21}}}
		switch i % 5 {
		case 1:
			e.Vectors = append(e.Vectors, nil, []float32{})
			e.Attrs = []int64{math.MinInt64, int64(i)}
		case 2:
			e.Cats = []string{"x},{y", `a},{"id":1`, "<é>"}
		case 3:
			e.Attrs, e.Cats = []int64{}, []string{}
		case 4:
			e.Vectors = nil
		}
		r.Entities[i] = e
	}
	return r
}

// checkInsertShards holds the sharded encode and decode of data at shards
// pieces to the serial ones: encoding the value data decodes to must give
// the serial bytes and error, and the sharded scan must give the serial
// scan's entities or leave the body to it. It reports whether the sharded
// scan took the body.
func checkInsertShards(t *testing.T, data []byte, shards int) (took bool) {
	t.Helper()
	var serial InsertRequest
	serialOK := scan(data, &serial, (*scanner).insertRequest)
	es, took := scanInsertShards(data, shards, goFanout)
	if took && !serialOK {
		t.Fatalf("%q at %d shards: sharded scan took a body the serial scan leaves to json.Unmarshal", data, shards)
	}
	if took && !reflect.DeepEqual(es, serial.Entities) {
		t.Fatalf("%q at %d shards: sharded scan = %+v, serial = %+v", data, shards, es, serial.Entities)
	}
	var got InsertRequest
	if scanInsert(data, &got, shards, goFanout) != serialOK || !reflect.DeepEqual(got, serial) {
		t.Fatalf("%q at %d shards: scanInsert = %+v, serial scan = %+v", data, shards, got, serial)
	}
	var v InsertRequest
	if json.Unmarshal(data, &v) == nil {
		checkEncodeShards(t, v, shards)
	}
	return took
}

// checkEncodeShards: encoding r at shards pieces writes the serial bytes,
// or fails with the serial error.
func checkEncodeShards(t *testing.T, r InsertRequest, shards int) {
	t.Helper()
	n := insertBytes(r.Entities)
	want, wantErr := encodeInsert(r, n, 1, goFanout)
	got, err := encodeInsert(r, n, shards, goFanout)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%d entities at %d shards: error %v, serial error %v", len(r.Entities), shards, err, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%d entities at %d shards: encoded\n%s\nserial\n%s", len(r.Entities), shards, got, want)
	}
}

// shardSeeds are the insert bodies the sharded scan must take at 2–4
// shards (true), and those it must leave to the serial path (false).
func shardSeeds(t testing.TB) wireSeeds {
	var r InsertRequest
	for i := 0; i < 12; i++ {
		r.Entities = append(r.Entities, EntityJSON{ID: int64(i), Vectors: [][]float32{{float32(i) / 3, -1e-7}},
			Attrs: []int64{int64(i)}, Cats: []string{"red", "a b"}})
	}
	sdk := mustMarshal(t, r)
	s := wireSeeds{}
	s.add(true,
		sdk,
		// Whitespace around elements and keys in any order.
		" {\n\"entities\" :\t[ {\"id\":1,\"vectors\":[[1]]} ,\n {\"vectors\":[[2,3]],\"id\":2} ,{ \"cats\":[\"c\"],\"attrs\":[4],\"id\":3 }\r\n,\n\t{\"attrs\":[],\"id\":4} ] \n}\t",
		`{"entities":[{"id":1},{"id":2},{"id":3},{"id":4}]}`,
	)
	s.add(false,
		// A guessed cut inside a category: the piece it truncates fails.
		`{"entities":[{"id":1,"cats":["`+strings.Repeat("a", 64)+`},{`+strings.Repeat("b", 64)+`"]},{"id":2}]}`,
		// A quote inside a category is escaped, which the scanner leaves
		// to json.Unmarshal.
		`{"entities":[{"id":1,"cats":["},{\"id\":2"]},{"id":3},{"id":4}]}`,
		// A repeated key in the last entity of the first piece.
		`{"entities":[{"id":1},{"id":2,"id":5},{"id":3},{"id":4}]}`,
		// Top-level shapes the split must not take.
		`{"entities":[{"id":1},{"id":2}],"entities":[{"id":3},{"id":4}]}`,
		`{"entities":[{"id":1},{"id":2}]`,
		`{"entities":[{"id":1},{"id":2}]}}`,
		`{"entities":[{"id":1},{"id":2}]]`,
		`{"entities":[{"id":1},{"id":2}x}`,
		`{"entities":[{"id":1},{"id":2},}`,
		`{"entities":[{"id":1},{"id":2}],}`,
		`{"entities":[{"id":1},,{"id":2}]}`,
		`{"entities":[{"id":1,"attrs":[1,2,3,4,5,6,7,8,9,10,11,12,13,14]} x {"id":2}]}`,
		`{"entities":[{"id":1,"attrs":[1,2,3,4,5,6,7,8,9,10,11,12,13,14]}{"id":2}]}`,
		`{"entities":[{"id":1},{"id":2},]}`,
		// A NUL byte after an entity, where a piece's scan must not stop.
		`{"entities":[{"id":1}`+"\x00"+`},{"id":2}]}`,
		`{"entities":[{"id":1}`+"\x00"+`,{"id":3},{"id":2}]}`,
		`{"entities":[[{"id":1},{"id":2}]]}`,
		`{"Entities":[{"id":1},{"id":2}]}`,
		`{"entities":[]}`,
		`{"entities":[{"id":1}]}`,
	)
	s.truncations(sdk)
	return s
}

// TestInsertShardsMatchSerial: at 2–4 shards, the sharded scan takes the
// bodies it can split, leaves the rest, and agrees with the serial scan on
// every seed; the sharded encode writes the serial bytes.
func TestInsertShardsMatchSerial(t *testing.T) {
	for shards := 2; shards <= 4; shards++ {
		for body, want := range shardSeeds(t) {
			if got := checkInsertShards(t, []byte(body), shards); got != want {
				t.Errorf("%q at %d shards: sharded scan took it = %v, want %v", body, shards, got, want)
			}
		}
		for body := range insertRequestSeeds(t) {
			checkInsertShards(t, []byte(body), shards)
		}
		for _, n := range []int{0, 1, shards - 1, shards, 37} {
			checkEncodeShards(t, shardRequest(n), shards)
		}
		checkEncodeShards(t, InsertRequest{}, shards)
	}
}

// TestInsertShardsFailOnFirstNaN: a NaN or ±Inf in the first or the last
// entity of any shard fails the sharded encode with the serial error, the
// first bad value in entity order.
func TestInsertShardsFailOnFirstNaN(t *testing.T) {
	const n = 13
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for shards := 2; shards <= 4; shards++ {
		for j := 0; j < shards; j++ {
			first, last := j*n/shards, (j+1)*n/shards-1
			for _, c := range [][2]int{{first, last}, {last, first}, {first, (last + 1) % n}, {last, (first + n - 1) % n}} {
				r := shardRequest(n)
				r.Entities[c[0]].Vectors = [][]float32{{1, nan}}
				r.Entities[c[1]].Attrs = []int64{1}
				r.Entities[c[1]].Vectors = [][]float32{{inf}}
				checkEncodeShards(t, r, shards)
			}
		}
	}
}

// FuzzInsertShards: on any body, the sharded scan at 2–4 shards gives the
// serial scan's value or leaves the body to it, and the sharded encode of
// what the body decodes to gives the serial bytes.
func FuzzInsertShards(f *testing.F) {
	for i, seeds := range []wireSeeds{insertRequestSeeds(f), shardSeeds(f)} {
		for body := range seeds {
			f.Add([]byte(body), uint8(i))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, k uint8) {
		checkInsertShards(t, data, 2+int(k%3))
	})
}

// postWire posts v, encoded by Marshal, to url and returns the response
// body, failing t unless the status is 2xx.
func postWire(t *testing.T, url string, v any) []byte {
	t.Helper()
	body, err := Marshal(v)
	if err != nil {
		t.Error(err)
		return nil
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
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

// wireServer serves a new database holding collection c, 64-dim vectors
// and attribute a.
func wireServer(t *testing.T) (*core.DB, *httptest.Server) {
	db := core.NewDB(nil)
	srv := httptest.NewServer(NewServer(db))
	t.Cleanup(srv.Close)
	postWire(t, srv.URL+"/collections", CreateCollectionRequest{Name: "c", VectorFields: []VectorFieldJSON{{Name: "v", Dim: 64}}, AttrFields: []string{"a"}})
	return db, srv
}

// wireRows is an insert of rows entities with IDs from first on, each
// vector distinct from every other ID's.
func wireRows(first, rows int) InsertRequest {
	r := InsertRequest{Entities: make([]EntityJSON, rows)}
	for i := range r.Entities {
		id := first + i
		v := make([]float32, 64)
		for j := range v {
			v[j] = float32(id*64+j) / 8191
		}
		r.Entities[i] = EntityJSON{ID: int64(id), Vectors: [][]float32{v}, Attrs: []int64{int64(id)}}
	}
	return r
}

// TestLargeInsertDecodesOnThePool: the handler scans an insert body of
// several shardFloors in shards on the database's exec pool, and a body
// under two floors — mixed.rw's 128-row writer tick — on its own
// goroutine, serially.
func TestLargeInsertDecodesOnThePool(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	db, srv := wireServer(t)
	tasks := func() int {
		var buf bytes.Buffer
		if err := db.Obs().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		m := regexp.MustCompile(`(?m)^vectordb_exec_tasks_total (\d+)$`).FindSubmatch(buf.Bytes())
		if m == nil {
			t.Fatalf("no vectordb_exec_tasks_total in\n%s", buf.Bytes())
		}
		n, _ := strconv.Atoi(string(m[1]))
		return n
	}
	insert := func(rows int) (body, ran int) {
		r := wireRows(0, rows)
		b, _ := Marshal(r)
		before := tasks()
		postWire(t, srv.URL+"/collections/c/entities", r)
		return len(b), tasks() - before
	}
	if body, ran := insert(128); ran != 0 {
		t.Errorf("a %d-byte insert ran %d exec tasks, want none", body, ran)
	}
	if body, ran := insert(2048); ran != shardCount(body) || ran < 2 {
		t.Errorf("a %d-byte insert ran %d exec tasks, want %d shards", body, ran, shardCount(body))
	}
}

// TestLargeInsertsBesideSearches: searches keep answering, and answering
// right, while large insert bodies decode in shards on the exec pool that
// runs the searches' tasks.
func TestLargeInsertsBesideSearches(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	_, srv := wireServer(t)
	postWire(t, srv.URL+"/collections/c/entities", wireRows(0, 128))
	postWire(t, srv.URL+"/collections/c/flush", struct{}{})
	query := SearchRequest{Field: "v", Vector: wireRows(5, 1).Entities[0].Vectors[0], K: 3}
	var inserting, searching sync.WaitGroup
	for w := 0; w < 2; w++ {
		inserting.Add(1)
		go func() {
			defer inserting.Done()
			for i := 0; i < 3; i++ {
				postWire(t, srv.URL+"/collections/c/entities", wireRows(1000+(w*3+i)*2048, 2048))
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
				if err := Unmarshal(postWire(t, srv.URL+"/collections/c/search", query), &resp); err != nil ||
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
// of 128 dims, encoded and decoded at one shard and at the count
// shardCount derives from its size and GOMAXPROCS. Its one-shard MB/s is
// what sizes shardFloor.
func BenchmarkInsertWire(b *testing.B) {
	d := dataset.SIFTLike(4096, 1)
	r := InsertRequest{Entities: make([]EntityJSON, d.N)}
	for i := range r.Entities {
		r.Entities[i] = EntityJSON{ID: int64(i), Vectors: [][]float32{d.Row(i)}}
	}
	n := insertBytes(r.Entities)
	body, err := encodeInsert(r, n, 1, goFanout)
	if err != nil {
		b.Fatal(err)
	}
	counts := []int{1}
	if k := shardCount(len(body)); k > 1 {
		counts = append(counts, k)
	}
	for _, shards := range counts {
		b.Run(fmt.Sprintf("encode/shards=%d", shards), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				out, err := encodeInsert(r, n, shards, goFanout)
				if err != nil || len(out) != len(body) {
					b.Fatalf("%d bytes, %v; want %d", len(out), err, len(body))
				}
				wireSink = out
			}
		})
		b.Run(fmt.Sprintf("decode/shards=%d", shards), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				var v InsertRequest
				if !scanInsert(body, &v, shards, goFanout) || len(v.Entities) != d.N {
					b.Fatalf("decoded %d of %d entities", len(v.Entities), d.N)
				}
				wireSink = v
			}
		})
	}
}
