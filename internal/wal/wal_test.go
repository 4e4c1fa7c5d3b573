package wal

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// edgeBatch is an insert of n rows over two vector fields, two attributes
// and two categories, holding the edge values: ids at both int64 ends, −0,
// subnormal and extreme floats, empty and multi-byte strings.
func edgeBatch(n int) *Batch {
	b := &Batch{Kind: Insert, IDs: make([]int64, n)}
	if n == 0 {
		return b
	}
	sub, negZero := math.Float32frombits(1), float32(math.Copysign(0, -1))
	cats := []string{"", "red", "é<>", "\U0001F600"}
	b.Vectors, b.Attrs, b.Cats = make([][]float32, 2), make([][]int64, 2), make([][]string, 2)
	for i := range n {
		b.IDs[i] = int64(i*7919) - 3
		switch i {
		case 0:
			b.IDs[i] = math.MinInt64
		case 1:
			b.IDs[i] = math.MaxInt64
		}
		b.Vectors[0] = append(b.Vectors[0], float32(i)/3, negZero, sub*float32(i+1))
		b.Vectors[1] = append(b.Vectors[1], -math.MaxFloat32/float32(i+1), math.SmallestNonzeroFloat32*3)
		b.Attrs[0] = append(b.Attrs[0], math.MinInt64+int64(i))
		b.Attrs[1] = append(b.Attrs[1], int64(i%3))
		b.Cats[0] = append(b.Cats[0], cats[i%len(cats)])
		b.Cats[1] = append(b.Cats[1], cats[(i+1)%len(cats)])
	}
	return b
}

func mustBody(t testing.TB, b *Batch) []byte {
	t.Helper()
	body, err := AppendBody(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func mustFrame(t testing.TB, dst []byte, b *Batch) []byte {
	t.Helper()
	out, err := AppendFrame(dst, b)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameBatch compares kinds, lengths and values, floats by their bits so
// that −0 is not 0.
func sameBatch(a, b *Batch) bool {
	if a.Kind != b.Kind || !slices.Equal(a.IDs, b.IDs) || len(a.Vectors) != len(b.Vectors) ||
		!slices.EqualFunc(a.Attrs, b.Attrs, slices.Equal[[]int64]) || !slices.EqualFunc(a.Cats, b.Cats, slices.Equal[[]string]) {
		return false
	}
	for f := range a.Vectors {
		if !slices.EqualFunc(a.Vectors[f], b.Vectors[f], func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) }) {
			return false
		}
	}
	return true
}

// object is a WAL object of inserts and deletes, each batch alone as it
// would be shipped, and the offset at which each frame ends.
func object(t testing.TB) (batches []*Batch, obj []byte, ends []int) {
	batches = []*Batch{edgeBatch(3), {Kind: Delete, IDs: []int64{-3, 7916}}, edgeBatch(1), {Kind: Delete}, edgeBatch(6)}
	for _, b := range batches {
		obj = mustFrame(t, obj, b)
		ends = append(ends, len(obj))
	}
	return batches, obj, ends
}

// TestRecordRoundTrip: a WAL record is one frame; every batch shape —
// edge values, no rows, rows without fields, a delete — replays as
// itself.
func TestRecordRoundTrip(t *testing.T) {
	for i, b := range []*Batch{edgeBatch(0), edgeBatch(1), edgeBatch(7), {Kind: Insert, IDs: []int64{1, 2}},
		{Kind: Delete, IDs: []int64{-1, 0, math.MaxInt64}}} {
		got, err := Replay(mustFrame(t, nil, b))
		if err != nil || len(got) != 1 || !sameBatch(got[0], b) {
			t.Fatalf("batch %d: replayed %+v, %v; want %+v", i, got, err, b)
		}
	}
}

// TestRecordCRCDetectsCorruption: a flip of any byte of a frame replays
// nothing and reports the object torn.
func TestRecordCRCDetectsCorruption(t *testing.T) {
	frame := mustFrame(t, nil, edgeBatch(2))
	for i := range frame {
		bad := slices.Clone(frame)
		bad[i] ^= 0x01
		if got, err := Replay(bad); len(got) != 0 || !errors.Is(err, ErrTorn) {
			t.Fatalf("byte %d flipped: %d batches, %v", i, len(got), err)
		}
	}
}

// TestRecordUnknownType: a frame whose kind is neither insert nor delete,
// or a delete that holds more than IDs, is refused with a valid CRC too,
// and AppendFrame writes neither.
func TestRecordUnknownType(t *testing.T) {
	for _, kind := range []byte{0, 3, 99, byte(Delete)} {
		frame := mustFrame(t, nil, edgeBatch(2))
		frame[4] = kind
		le.PutUint32(frame[len(frame)-4:], crc32.ChecksumIEEE(frame[4:len(frame)-4]))
		if got, err := Replay(frame); len(got) != 0 || !errors.Is(err, ErrTorn) {
			t.Errorf("kind %d: %d batches, %v", kind, len(got), err)
		}
		b := edgeBatch(2)
		b.Kind = Kind(kind)
		if out, err := AppendFrame([]byte("x"), b); err == nil || string(out) != "x" {
			t.Errorf("kind %d: AppendFrame wrote %q, %v", kind, out, err)
		}
	}
}

// Property: every insert of finite floats round-trips through a frame.
func TestRecordRoundTripProperty(t *testing.T) {
	f := func(ids []int64, dim uint8, vecData []float32, attrs []int64, cat string) bool {
		b, n, d := &Batch{Kind: Insert, IDs: ids}, len(ids), int(dim%5)+1
		if n > 0 {
			v := make([]float32, n*d)
			for i := range v {
				if len(vecData) > 0 {
					v[i] = vecData[i%len(vecData)]
				}
			}
			a, c := make([]int64, n), make([]string, n)
			for i := range a {
				if len(attrs) > 0 {
					a[i] = attrs[i%len(attrs)]
				}
				c[i] = cat[:i%(len(cat)+1)]
			}
			b.Vectors, b.Attrs, b.Cats = [][]float32{v}, [][]int64{a}, [][]string{c}
		}
		if _, err := AppendBody(nil, b); err != nil { // a cut of cat is not UTF-8
			return true
		}
		got, err := Replay(mustFrame(t, nil, b))
		return err == nil && len(got) == 1 && sameBatch(got[0], b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAppendBodyRefuses: what a body cannot carry fails, leaving dst as it
// was. A vector word of any bits is carried (TestBodyCarriesWordBits).
func TestAppendBodyRefuses(t *testing.T) {
	for name, bend := range map[string]func(*Batch){
		"fields without rows": func(b *Batch) { b.IDs = nil },
		"ragged vectors":      func(b *Batch) { b.Vectors[1] = b.Vectors[1][:3] },
		"empty vectors":       func(b *Batch) { b.Vectors[1] = nil },
		"short attrs":         func(b *Batch) { b.Attrs[0] = b.Attrs[0][:1] },
		"long cats":           func(b *Batch) { b.Cats[1] = append(b.Cats[1], "") },
		"invalid UTF-8":       func(b *Batch) { b.Cats[0][1] = "a\xffb" },
	} {
		b := edgeBatch(2)
		bend(b)
		if out, err := AppendBody([]byte("x"), b); err == nil || string(out) != "x" {
			t.Errorf("%s: wrote %q, %v", name, out, err)
		}
	}
}

// TestBodyCarriesWordBits: a body carries vector words as bits, whatever
// float they read as; the schema, not the body, judges them. A batch
// holding a NaN, +Inf or −Inf word, or a fingerprint's all-ones and NaN
// patterns, comes back bit for bit from DecodeBody and from Replay of its
// frame, and AppendRows writes AppendBody's bytes for its rows.
func TestBodyCarriesWordBits(t *testing.T) {
	bent := func(bend func(*Batch)) *Batch {
		b := edgeBatch(2)
		bend(b)
		return b
	}
	for name, b := range map[string]*Batch{
		"NaN in field 0":    bent(func(b *Batch) { b.Vectors[0][4] = float32(math.NaN()) }),
		"NaN in row 1":      bent(func(b *Batch) { b.Vectors[0][5] = float32(math.NaN()) }),
		"+Inf in field 1":   bent(func(b *Batch) { b.Vectors[1][0] = float32(math.Inf(1)) }),
		"-Inf in field 1":   bent(func(b *Batch) { b.Vectors[1][0] = float32(math.Inf(-1)) }),
		"fingerprint words": fingerprintBatch(),
	} {
		body := mustBody(t, b)
		if got, err := DecodeBody(body); err != nil || !sameBatch(got, b) {
			t.Errorf("%s: decoded %+v, %v; want %+v", name, got, err, b)
		}
		if rows, err := appendRows(nil, rowsOf(b)); err != nil || !bytes.Equal(rows, body) {
			t.Errorf("%s: rows write %x (%v), AppendBody %x", name, rows, err, body)
		}
		if got, err := Replay(mustFrame(t, nil, b)); err != nil || len(got) != 1 || !sameBatch(got[0], b) {
			t.Errorf("%s: replayed %+v, %v; want %+v", name, got, err, b)
		}
	}
}

func TestLogAsyncApplyAndFlush(t *testing.T) {
	var applied atomic.Int64
	var mu sync.Mutex
	var order []int64
	l := NewLog(func(b *Batch) {
		mu.Lock()
		order = append(order, b.IDs[0])
		mu.Unlock()
		applied.Add(1)
	}, nil, nil)
	defer l.Close()
	const n = 500
	for i := 0; i < n; i++ {
		if err := l.Append(&Batch{Kind: Insert, IDs: []int64{int64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	l.Flush()
	if applied.Load() != n {
		t.Fatalf("applied %d, want %d", applied.Load(), n)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := range order {
		if order[i] != int64(i) {
			t.Fatalf("out-of-order apply at %d: %v", i, order[i])
		}
	}
}

// TestLogDropsAppliedRecords: the log is an apply queue, not a store —
// once Flush returns, no applied batch is reachable from it, so an applied
// batch's vectors are garbage as soon as the consumer drops them. A
// closed log refuses appends.
func TestLogDropsAppliedRecords(t *testing.T) {
	l := NewLog(func(*Batch) {}, nil, nil)
	const n = 4
	var freed atomic.Int32
	for i := 0; i < n; i++ {
		b := &Batch{Kind: Insert, IDs: []int64{int64(i)}, Vectors: [][]float32{make([]float32, 64)}}
		runtime.SetFinalizer(b, func(*Batch) { freed.Add(1) })
		if err := l.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	l.Append(&Batch{Kind: Delete, IDs: []int64{1}})
	l.Flush()
	for deadline := time.Now().Add(5 * time.Second); freed.Load() < n && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := freed.Load(); got != n {
		t.Fatalf("%d of %d applied batches still reachable after Flush", n-got, n)
	}
	l.Close()
	if err := l.Append(&Batch{Kind: Insert, IDs: []int64{2}}); err == nil {
		t.Fatal("append after close accepted")
	}
}

func TestLogConcurrentAppend(t *testing.T) {
	var applied atomic.Int64
	l := NewLog(func(b *Batch) { applied.Add(int64(b.Rows())) }, nil, nil)
	defer l.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Append(&Batch{Kind: Insert, IDs: []int64{int64(w*1000 + i), int64(w*1000 + i + 500)}})
			}
		}(w)
	}
	wg.Wait()
	l.Flush()
	if applied.Load() != 1600 {
		t.Fatalf("applied %d rows, want 1600", applied.Load())
	}
}

func TestBatchRoundTrip(t *testing.T) {
	batches, obj, _ := object(t)
	got, err := Replay(obj)
	if err != nil || len(got) != len(batches) {
		t.Fatalf("clean object: %d batches, %v; want %d", len(got), err, len(batches))
	}
	for i := range got {
		if !sameBatch(got[i], batches[i]) {
			t.Fatalf("batch %d: %+v, want %+v", i, got[i], batches[i])
		}
	}
	if out, err := Replay(nil); err != nil || len(out) != 0 {
		t.Fatalf("empty object: %v %v", out, err)
	}
}

// TestBatchTornTailRecovery is the crash-recovery contract: cut an object
// of five frames at EVERY offset — as a crash mid-upload would — and
// replay. The whole frames before the cut come back and no row of the cut
// frame (cut inside the second, the first batch alone replays); a cut off
// a frame boundary is reported as a torn tail (wrapping ErrTorn), never as
// a panic and never silently.
func TestBatchTornTailRecovery(t *testing.T) {
	batches, obj, ends := object(t)
	for cut := 0; cut <= len(obj); cut++ {
		want := 0
		for _, end := range ends {
			if end <= cut {
				want++
			}
		}
		got, err := Replay(obj[:cut])
		if len(got) != want {
			t.Fatalf("cut=%d: recovered %d batches, want %d", cut, len(got), want)
		}
		for i := range got {
			if !sameBatch(got[i], batches[i]) {
				t.Fatalf("cut=%d: batch %d is %+v, want %+v", cut, i, got[i], batches[i])
			}
		}
		if onBoundary := cut == 0 || want > 0 && ends[want-1] == cut; onBoundary != (err == nil) || err != nil && !errors.Is(err, ErrTorn) {
			t.Fatalf("cut=%d (on a boundary: %v): error %v", cut, onBoundary, err)
		}
	}
}

// TestBatchCorruptTailRecovery flips one byte in the LAST frame's body: the
// CRC must reject it, the clean prefix must survive, and the error must
// mark the object as torn.
func TestBatchCorruptTailRecovery(t *testing.T) {
	batches, obj, ends := object(t)
	corrupt := slices.Clone(obj)
	corrupt[ends[3]+30] ^= 0x40 // inside the last frame's body
	got, err := Replay(corrupt)
	if !errors.Is(err, ErrTorn) || len(got) != 4 {
		t.Fatalf("corrupted tail: %d batches, %v; want the clean prefix of 4", len(got), err)
	}
	for i := range got {
		if !sameBatch(got[i], batches[i]) {
			t.Fatalf("batch %d: %+v, want %+v", i, got[i], batches[i])
		}
	}
	// A frame length pointing far past the object must not allocate or crash.
	evil := append(slices.Clone(obj[:ends[0]]), 0xFF, 0xFF, 0xFF, 0x7F, 1, 0, 0, 0, 0)
	if got, err = Replay(evil); !errors.Is(err, ErrTorn) || len(got) != 1 {
		t.Fatalf("overrun frame: got %d batches, err %v", len(got), err)
	}
}

// bodyMutants are VDBC bodies the decoder must refuse.
func bodyMutants(t testing.TB) map[string][]byte {
	good := mustBody(t, edgeBatch(5))
	counts := func(rows, nv, na, nc uint32, dims ...uint32) []byte {
		b := []byte(Magic)
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
		"floats wrap to zero": counts(1<<31, 1, 0, 0, 1<<31-2),
		"attrs wrap to zero":  counts(1<<31, 0, 1<<30-1, 0),
		"cats wrap to zero":   counts(1<<31, 0, 0, 1<<31-2),
		"ids overrun body":    append(counts(math.MaxUint32, 0, 0, 0), make([]byte, 64)...),
		"dims overrun body":   counts(1, math.MaxUint32, 0, 0),
		"zero dim":            append(counts(1, 1, 0, 0, 0), make([]byte, 8)...),
		"fields without rows": counts(0, 0, 1, 0),
		"cat overruns body":   append(append(counts(1, 0, 0, 1), make([]byte, 8)...), 5, 0, 0, 0, 'a'),
		"invalid UTF-8 cat":   append(append(counts(1, 0, 0, 1), make([]byte, 8)...), 1, 0, 0, 0, 0xff),
	}
	for n := 0; n < len(good); n++ {
		ms[fmt.Sprintf("truncated at %d", n)] = good[:n]
	}
	return ms
}

// wordBits are 32-bit words a binary field's packed fingerprint may hold
// that read as no finite float32: all ones, a quiet NaN's pattern, +Inf,
// −Inf and a signalling NaN's.
var wordBits = []uint32{0xFFFFFFFF, 0x7FC00000, 0x7F800000, 0xFF800000, 0x7F800001}

// fingerprintBatch is edgeBatch(2) with wordBits in its first vector field.
func fingerprintBatch() *Batch {
	b := edgeBatch(2)
	for i, w := range wordBits {
		b.Vectors[0][i] = math.Float32frombits(w)
	}
	return b
}

// bodySeeds is FuzzBody's seed corpus: bodies of edge batches, one holding
// wordBits, the edge batch's body with each of its vector words in turn a
// NaN, +Inf and −Inf, and the mutants.
func bodySeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	for _, n := range []int{0, 1, 6} {
		seeds = append(seeds, mustBody(t, edgeBatch(n)))
	}
	seeds = append(seeds, mustBody(t, &Batch{IDs: []int64{1, 2}}), mustBody(t, &Batch{IDs: []int64{1}, Attrs: [][]int64{{7}}}),
		mustBody(t, fingerprintBatch()))
	good := mustBody(t, edgeBatch(5))
	const words = 5 * (3 + 2) // both vector fields' words
	start := header + 8 + 5*8 // the header, both dims, the ids
	for j := 0; j < words; j++ {
		for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
			body := slices.Clone(good)
			le.PutUint32(body[start+4*j:], math.Float32bits(bad))
			seeds = append(seeds, body)
		}
	}
	for _, body := range bodyMutants(t) {
		seeds = append(seeds, body)
	}
	return seeds
}

// rowsOf is b's rows as a client holds them, each vector a view of b's
// column.
func rowsOf(b *Batch) []Row {
	rows := make([]Row, b.Rows())
	for i := range rows {
		r := Row{ID: b.IDs[i]}
		for _, v := range b.Vectors {
			dim := len(v) / len(rows)
			r.Vectors = append(r.Vectors, v[i*dim:(i+1)*dim])
		}
		for _, col := range b.Attrs {
			r.Attrs = append(r.Attrs, col[i])
		}
		for _, col := range b.Cats {
			r.Cats = append(r.Cats, col[i])
		}
		rows[i] = r
	}
	return rows
}

func appendRows(dst []byte, rows []Row) ([]byte, error) {
	return AppendRows(dst, len(rows), func(i int) Row { return rows[i] })
}

// TestAppendRowsMatchesBody: on every FuzzBody seed that decodes — NaN
// and ±Inf words among them — writing the batch's rows straight from the
// rows gives the bytes AppendBody writes for the batch; rows the body
// cannot carry fail, leaving dst as it was.
func TestAppendRowsMatchesBody(t *testing.T) {
	decoded := 0
	for _, body := range bodySeeds(t) {
		b, err := DecodeBody(body)
		if err != nil {
			continue
		}
		decoded++
		if got, err := appendRows(nil, rowsOf(b)); err != nil || !bytes.Equal(got, body) {
			t.Fatalf("%+v: rows write %x (%v), AppendBody %x", b, got, err, body)
		}
	}
	if decoded < 5 {
		t.Fatalf("only %d seeds decode", decoded)
	}
	for name, bend := range map[string]func([]Row){
		"fewer vectors": func(rs []Row) { rs[1].Vectors = rs[1].Vectors[:1] },
		"ragged vector": func(rs []Row) { rs[1].Vectors[1] = rs[1].Vectors[1][:1] },
		"empty vector":  func(rs []Row) { rs[0].Vectors[0], rs[1].Vectors[0] = nil, nil },
		"more attrs":    func(rs []Row) { rs[0].Attrs = append(rs[0].Attrs, 1) },
		"fewer cats":    func(rs []Row) { rs[1].Cats = rs[1].Cats[:1] },
		"invalid UTF-8": func(rs []Row) { rs[1].Cats[0] = "a\xffb" },
	} {
		rows := rowsOf(edgeBatch(2))
		bend(rows)
		if out, err := appendRows([]byte("x"), rows); err == nil || string(out) != "x" {
			t.Errorf("%s: wrote %q, %v", name, out, err)
		}
	}
}

// FuzzBody: the decoder never panics, and every body it takes is exactly
// what the encoder writes for the batch it yields.
func FuzzBody(f *testing.F) {
	for _, body := range bodySeeds(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBody(data)
		if err != nil {
			return
		}
		if again, err := AppendBody(nil, b); err != nil || !bytes.Equal(again, data) {
			t.Fatalf("%x decodes to %+v, which encodes as %x (%v)", data, b, again, err)
		}
	})
}

// FuzzReplay: Replay never panics, allocates at most a constant times the
// object's length, and returns batches whose frames are a prefix of the
// object — all of it exactly when the error is nil, and otherwise the
// error wraps ErrTorn.
func FuzzReplay(f *testing.F) {
	_, obj, _ := object(f)
	for cut := 0; cut <= len(obj); cut++ {
		f.Add(obj[:cut])
	}
	f.Fuzz(func(t *testing.T, obj []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := Replay(obj)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 16*uint64(len(obj))+64<<10 {
			t.Fatalf("%d bytes allocated replaying %d", n, len(obj))
		}
		var again []byte
		for _, b := range got {
			again = mustFrame(t, again, b)
		}
		if !bytes.HasPrefix(obj, again) || (len(again) == len(obj)) != (err == nil) || err != nil && !errors.Is(err, ErrTorn) {
			t.Fatalf("%x replays %d batches (%x), %v", obj, len(got), again, err)
		}
	})
}
