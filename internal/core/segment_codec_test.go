package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"vectordb/internal/colstore"
	"vectordb/internal/index"
	"vectordb/internal/objstore"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// codecSchema has everything a segment image carries: two vector fields of
// different dims, two attributes and a categorical field.
func codecSchema() Schema {
	return Schema{
		VectorFields: []VectorField{{Name: "a", Dim: 4, Metric: vec.L2}, {Name: "b", Dim: 3, Metric: vec.IP}},
		AttrFields:   []string{"price", "stock"},
		CatFields:    []string{"brand"},
	}
}

func codecEntities(n int, seed int64) []Entity {
	r := rand.New(rand.NewSource(seed))
	brands := []string{"acme", "globex", "", "initech"}
	out := make([]Entity, n)
	for i := range out {
		a, b := make([]float32, 4), make([]float32, 3)
		for j := range a {
			a[j] = float32(r.NormFloat64())
		}
		for j := range b {
			b[j] = float32(r.NormFloat64())
		}
		out[i] = Entity{
			ID:      int64(i + 1),
			Vectors: [][]float32{a, b},
			Attrs:   []int64{int64(r.Intn(10000)), -int64(i)},
			Cats:    []string{brands[i%len(brands)]},
		}
	}
	return out
}

// segmentObjects lists a collection's segment objects (its persisted index
// blobs, which live under the segment key, excluded).
func segmentObjects(t *testing.T, store objstore.Store, coll string) []string {
	t.Helper()
	keys, err := store.List(fmt.Sprintf("col/%s/seg/", coll))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, k := range keys {
		if !strings.Contains(k, "/idx/") {
			out = append(out, k)
		}
	}
	return out
}

// assertNoExtKeys: a segment's cold tier is its segment object, so nothing
// is stored under a separate extent prefix.
func assertNoExtKeys(t *testing.T, store objstore.Store, coll string) {
	t.Helper()
	keys, err := store.List(fmt.Sprintf("col/%s/ext/", coll))
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Fatalf("separate extent objects stored: %v", keys)
	}
}

// TestSegmentEncodeDecodeRoundTrip: the object a flush stores is exactly
// encodeSegment's image of the sealed segment, and DecodeSegment gives back
// every column of it — both vector fields, attributes with working sorted
// columns, categoricals with working inverted lists.
func TestSegmentEncodeDecodeRoundTrip(t *testing.T) {
	schema := codecSchema()
	store := objstore.NewMemory()
	c, err := NewCollection("t", schema, store, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Insert(codecEntities(30, 80)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	sn := c.AcquireSnapshot()
	defer c.ReleaseSnapshot(sn)
	seg := sn.Segments[0]
	blob, err := store.Get(c.segmentKey(seg.ID))
	if err != nil {
		t.Fatal(err)
	}
	img, err := encodeSegment(seg)
	if err != nil {
		t.Fatal(err)
	}
	if string(img) != string(blob) {
		t.Fatal("stored object differs from the segment's encoded image")
	}
	got, err := DecodeSegment(blob, &schema)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != seg.ID || got.Rows() != seg.Rows() {
		t.Fatalf("round trip: id=%d rows=%d", got.ID, got.Rows())
	}
	for i := range seg.IDs {
		if got.IDs[i] != seg.IDs[i] {
			t.Fatal("ids corrupted")
		}
		for a := range schema.AttrFields {
			if got.RawAttrs[a][i] != seg.RawAttrs[a][i] {
				t.Fatalf("attr %d corrupted", a)
			}
		}
		if got.RawCats[0][i] != seg.RawCats[0][i] {
			t.Fatal("categoricals corrupted")
		}
	}
	for f := range schema.VectorFields {
		if got.Vectors[f].Dim != schema.VectorFields[f].Dim {
			t.Fatalf("field %d dim %d", f, got.Vectors[f].Dim)
		}
		for i := range seg.Vectors[f].Data {
			if got.Vectors[f].Data[i] != seg.Vectors[f].Data[i] {
				t.Fatalf("field %d vectors corrupted", f)
			}
		}
	}
	// Rebuilt sorted and inverted columns answer queries identically.
	if v, ok := got.AttrByID(0, seg.IDs[3]); !ok || v != seg.RawAttrs[0][3] {
		t.Fatalf("AttrByID = %d,%v", v, ok)
	}
	if n, want := got.Attrs[1].CountRange(-10, -5), seg.Attrs[1].CountRange(-10, -5); n != want {
		t.Fatalf("CountRange = %d, want %d", n, want)
	}
	if n, want := got.Cats[0].Count("acme"), seg.Cats[0].Count("acme"); n != want || n == 0 {
		t.Fatalf("Count(acme) = %d, want %d", n, want)
	}

	if _, err := DecodeSegment(blob[:len(blob)/2], &schema); err == nil {
		t.Error("truncated segment accepted")
	}
	wrong := codecSchema()
	wrong.AttrFields = append(wrong.AttrFields, "extra")
	if _, err := DecodeSegment(blob, &wrong); err == nil {
		t.Error("wrong attr count accepted")
	}
	wrong = codecSchema()
	wrong.VectorFields[1].Dim = 6
	if _, err := DecodeSegment(blob, &wrong); err == nil {
		t.Error("wrong vector dim accepted")
	}
}

// codecImage is a sealed image of a small segment under codecSchema.
func codecImage(t testing.TB, rows int) []byte {
	schema := codecSchema()
	ents := codecEntities(rows, 5)
	seg := newSegment(7)
	for i := range ents {
		seg.IDs = append(seg.IDs, ents[i].ID)
	}
	for f, vf := range schema.VectorFields {
		var data []float32
		for i := range ents {
			data = append(data, ents[i].Vectors[f]...)
		}
		seg.Vectors = append(seg.Vectors, colstore.NewVectorColumn(vf.Dim, data))
	}
	for a := range schema.AttrFields {
		raw := make([]int64, rows)
		for i := range ents {
			raw[i] = ents[i].Attrs[a]
		}
		seg.RawAttrs = append(seg.RawAttrs, raw)
	}
	cats := make([]string, rows)
	for i := range ents {
		cats[i] = ents[i].Cats[0]
	}
	seg.RawCats = [][]string{cats}
	img, err := encodeSegment(seg)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// codecMutants are copies of a codecImage that DecodeSegment must reject:
// truncations, a flipped payload byte, and directories colstore accepts
// but the schema does not (a vector field re-shaped to the same byte
// length, a renumbered attribute, a duplicated ID extent).
func codecMutants(img []byte) map[string][]byte {
	// Directory entries in encodeSegment order: ids, vectors a, vectors b,
	// attrs price, attrs stock, cats brand.
	entry := func(buf []byte, i int) []byte { return buf[24+40*i:] }
	mutate := func(fn func(buf []byte)) []byte {
		buf := append([]byte(nil), img...)
		fn(buf)
		return buf
	}
	return map[string][]byte{
		"truncated tail": img[:len(img)-9],
		"truncated half": img[:len(img)/2],
		"field a as 40 rows at dim 2": mutate(func(buf []byte) {
			binary.LittleEndian.PutUint64(entry(buf, 1)[24:], 40)
			binary.LittleEndian.PutUint32(entry(buf, 1)[32:], 2)
		}),
		"price renumbered": mutate(func(buf []byte) { binary.LittleEndian.PutUint32(entry(buf, 3)[4:], 9) }),
		"stock as a second id extent": mutate(func(buf []byte) {
			binary.LittleEndian.PutUint32(entry(buf, 4)[0:], colstore.ExtentIDs)
		}),
		"payload byte flipped": mutate(func(buf []byte) {
			buf[binary.LittleEndian.Uint64(entry(buf, 2)[8:])+3] ^= 0x10
		}),
	}
}

func TestDecodeSegmentRejectsMutants(t *testing.T) {
	schema := codecSchema()
	img := codecImage(t, 20)
	if _, err := DecodeSegment(img, &schema); err != nil {
		t.Fatalf("clean image: %v", err)
	}
	for name, buf := range codecMutants(img) {
		if _, err := DecodeSegment(buf, &schema); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzDecodeSegment: DecodeSegment never panics, and any image it accepts
// gives a segment whose every column has Rows() rows at the schema's dims —
// a shape the scan, lookup and filter paths can index without bounds checks
// of their own. It is seeded with an image and its codecMutants.
func FuzzDecodeSegment(f *testing.F) {
	img := codecImage(f, 20)
	f.Add(img)
	for _, buf := range codecMutants(img) {
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		schema := codecSchema()
		seg, err := DecodeSegment(data, &schema)
		if err != nil {
			return
		}
		rows := seg.Rows()
		if len(seg.Vectors) != len(schema.VectorFields) || len(seg.RawAttrs) != len(schema.AttrFields) ||
			len(seg.Attrs) != len(schema.AttrFields) || len(seg.RawCats) != len(schema.CatFields) ||
			len(seg.Cats) != len(schema.CatFields) {
			t.Fatalf("accepted segment has the wrong column count")
		}
		for i, col := range seg.Vectors {
			if col.Dim != schema.VectorFields[i].Dim || len(col.Data) != rows*col.Dim {
				t.Fatalf("vector field %d: %d floats at dim %d, want %d rows at %d", i, len(col.Data), col.Dim, rows, schema.VectorFields[i].Dim)
			}
		}
		for a := range schema.AttrFields {
			if len(seg.RawAttrs[a]) != rows || seg.Attrs[a].Len() != rows {
				t.Fatalf("attr %d: %d/%d rows, want %d", a, len(seg.RawAttrs[a]), seg.Attrs[a].Len(), rows)
			}
		}
		for cf := range schema.CatFields {
			if len(seg.RawCats[cf]) != rows || seg.Cats[cf].Len() != rows {
				t.Fatalf("cat %d: %d/%d rows, want %d", cf, len(seg.RawCats[cf]), seg.Cats[cf].Len(), rows)
			}
		}
		if rows > 0 {
			for fi, vf := range schema.VectorFields {
				if err := seg.SearchInto(topk.New(3), &schema, fi, make([]float32, vf.Dim), index.SearchParams{K: 3}); err != nil {
					t.Fatalf("vector field %d: %v", fi, err)
				}
			}
		}
	})
}

// TestCorruptSegmentObject: one flipped payload byte in a stored segment
// object makes a restore fail, tiered or not, instead of serving altered
// vectors (the image's checksums are verified on every decode).
func TestCorruptSegmentObject(t *testing.T) {
	const dim, rows = 8, 200
	for _, tiered := range []bool{false, true} {
		t.Run(fmt.Sprintf("tiered=%v", tiered), func(t *testing.T) {
			store := objstore.NewMemory()
			cfg := testConfig()
			if tiered {
				cfg = tierTestConfig(t)
			}
			c, err := NewCollection("t", testSchema(dim), store, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Insert(mkEntities(rows, dim, 3)); err != nil {
				t.Fatal(err)
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			keys, tombs := c.SegmentKeys(), c.Tombstones()
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			clean, err := RestoreCollection("t", testSchema(dim), store, cfg, keys, tombs)
			if err != nil {
				t.Fatalf("clean restore: %v", err)
			}
			clean.Close()
			corruptVectorByte(t, store, keys[len(keys)-1])
			if _, err := RestoreCollection("t", testSchema(dim), store, cfg, keys, tombs); err == nil {
				t.Fatal("restore accepted a corrupted segment object")
			}
		})
	}
}

// corruptVectorByte flips one bit inside the first vector payload of the
// segment object stored under key.
func corruptVectorByte(t *testing.T, store objstore.Store, key string) {
	t.Helper()
	blob, err := store.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := colstore.DecodeSegmentFile(blob)
	if err != nil {
		t.Fatal(err)
	}
	blob[sf.Find(colstore.ExtentVectors, 0).Off+5] ^= 0x40
	if err := store.Put(key, blob); err != nil {
		t.Fatal(err)
	}
}

// putCounter counts Puts per key on top of a store.
type putCounter struct {
	objstore.Store
	mu   sync.Mutex
	puts map[string]int
}

func (p *putCounter) Put(key string, data []byte) error {
	p.mu.Lock()
	p.puts[key]++
	p.mu.Unlock()
	return p.Store.Put(key, data)
}

// TestOneStoreObjectPerSegment: every sealed segment — from a flush or a
// merge, tiered or not — is exactly one Put of one object under its segment
// key, and nothing else is stored for it.
func TestOneStoreObjectPerSegment(t *testing.T) {
	const dim = 8
	for _, tiered := range []bool{false, true} {
		t.Run(fmt.Sprintf("tiered=%v", tiered), func(t *testing.T) {
			store := &putCounter{Store: objstore.NewMemory(), puts: map[string]int{}}
			cfg := testConfig()
			if tiered {
				cfg = tierTestConfig(t)
			}
			c, err := NewCollection("t", testSchema(dim), store, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			ents := mkEntities(1024, dim, 29)
			for i := 0; i < len(ents); i += 64 {
				if err := c.Insert(ents[i : i+64]); err != nil {
					t.Fatal(err)
				}
				if err := c.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			sealed := c.met.segBuilt.Value() + c.met.merges.Value()
			if c.met.merges.Value() == 0 {
				t.Fatal("no merge ran")
			}
			store.mu.Lock()
			defer store.mu.Unlock()
			if int64(len(store.puts)) != sealed {
				t.Fatalf("%d keys Put for %d sealed segments: %v", len(store.puts), sealed, store.puts)
			}
			for key, n := range store.puts {
				if n != 1 || !strings.HasPrefix(key, "col/t/seg/") {
					t.Fatalf("key %q Put %d times", key, n)
				}
			}
			if n := len(segmentObjects(t, store, "t")); n != c.Stats().Segments {
				t.Fatalf("%d segment objects for %d live segments", n, c.Stats().Segments)
			}
			assertNoExtKeys(t, store, "t")
		})
	}
}
