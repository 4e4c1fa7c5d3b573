package index_test

import (
	"testing"

	"vectordb/internal/dataset"
	"vectordb/internal/index"
	_ "vectordb/internal/index/all"
	"vectordb/internal/vec"
)

// blobTypes are the index types that persist a blob, each with the build
// parameters of its seed.
var blobTypes = []struct {
	name   string
	params map[string]string
}{
	{"HNSW", map[string]string{"m": "4", "ef_construction": "16"}},
	{"IVF_FLAT", map[string]string{"nlist": "4"}},
	{"IVF_SQ8", map[string]string{"nlist": "4"}},
	{"IVF_PQ", map[string]string{"nlist": "4", "m": "4", "ks": "16"}},
}

// FuzzUnmarshalIndex: any bytes, read as any persisted index type's blob,
// either fail to decode or give an index that answers a K=5 search without
// panicking. The seeds are real MarshalIndex output of each type.
func FuzzUnmarshalIndex(f *testing.F) {
	const dim = 8
	d := dataset.Uniform(64, dim, 41)
	q := d.Data[:dim]
	p := index.SearchParams{K: 5, Nprobe: 4, Ef: 16}
	for i, bt := range blobTypes {
		b, err := index.NewBuilder(bt.name, vec.L2, dim, bt.params)
		if err != nil {
			f.Fatal(err)
		}
		idx, err := b.Build(d.Data, nil)
		if err != nil {
			f.Fatal(err)
		}
		blob, err := idx.(index.Marshaler).MarshalIndex()
		if err != nil {
			f.Fatal(err)
		}
		back, err := index.Unmarshal(bt.name, vec.L2, dim, blob)
		if err != nil || len(back.Search(q, p)) != p.K {
			f.Fatalf("%s: its own blob does not read back into a searchable index (%v)", bt.name, err)
		}
		f.Add(uint8(i), blob)
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		name := blobTypes[int(kind)%len(blobTypes)].name
		idx, err := index.Unmarshal(name, vec.L2, dim, data)
		if err != nil {
			return
		}
		idx.Search(q, p)
	})
}
