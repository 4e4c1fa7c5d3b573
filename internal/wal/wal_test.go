package wal

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestRecordRoundTrip(t *testing.T) {
	recs := []*Record{
		{Type: RecordInsert, ID: 42, Vectors: [][]float32{{1, 2}, {3, 4, 5}}, Attrs: []int64{7, -8}},
		{Type: RecordDelete, ID: -1},
		{Type: RecordInsert, ID: 0, Vectors: [][]float32{{}}, Attrs: nil},
	}
	for i, r := range recs {
		got, err := Unmarshal(r.Marshal())
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.Type != r.Type || got.ID != r.ID || len(got.Attrs) != len(r.Attrs) {
			t.Fatalf("record %d: %+v != %+v", i, got, r)
		}
		for j := range r.Vectors {
			if len(got.Vectors[j]) != len(r.Vectors[j]) {
				t.Fatalf("record %d vec %d length mismatch", i, j)
			}
			for x := range r.Vectors[j] {
				if got.Vectors[j][x] != r.Vectors[j][x] {
					t.Fatalf("record %d vec %d mismatch", i, j)
				}
			}
		}
		for j := range r.Attrs {
			if got.Attrs[j] != r.Attrs[j] {
				t.Fatalf("record %d attr %d mismatch", i, j)
			}
		}
	}
}

func TestRecordCRCDetectsCorruption(t *testing.T) {
	r := &Record{Type: RecordInsert, ID: 7, Vectors: [][]float32{{1, 2, 3}}}
	b := r.Marshal()
	b[5] ^= 0x01
	if _, err := Unmarshal(b); err == nil {
		t.Fatal("corrupted record accepted")
	}
	if _, err := Unmarshal(b[:3]); err == nil {
		t.Fatal("short record accepted")
	}
}

func TestRecordUnknownType(t *testing.T) {
	r := &Record{Type: RecordInsert, ID: 1}
	b := r.Marshal()
	b[0] = 99
	// fix CRC so only the type check fires
	body := b[:len(b)-4]
	_ = body
	if _, err := Unmarshal(b); err == nil {
		t.Fatal("unknown type accepted (or CRC missed it)")
	}
}

// Property: Marshal/Unmarshal round-trips arbitrary records.
func TestRecordRoundTripProperty(t *testing.T) {
	f := func(id int64, vecData []float32, attrs []int64, del bool) bool {
		r := &Record{Type: RecordInsert, ID: id}
		if del {
			r.Type = RecordDelete
		}
		if len(vecData) > 0 {
			r.Vectors = [][]float32{vecData}
		}
		if len(attrs) > 0 {
			r.Attrs = attrs
		}
		got, err := Unmarshal(r.Marshal())
		if err != nil {
			return false
		}
		if got.Type != r.Type || got.ID != r.ID {
			return false
		}
		if len(got.Vectors) != len(r.Vectors) || len(got.Attrs) != len(r.Attrs) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLogAsyncApplyAndFlush(t *testing.T) {
	var applied atomic.Int64
	var mu sync.Mutex
	var order []int64
	l := NewLog(func(r *Record) {
		mu.Lock()
		order = append(order, r.ID)
		mu.Unlock()
		applied.Add(1)
	})
	defer l.Close()
	const n = 500
	for i := 0; i < n; i++ {
		if err := l.Append(&Record{Type: RecordInsert, ID: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Flush()
	if applied.Load() != n {
		t.Fatalf("applied %d, want %d", applied.Load(), n)
	}
	if l.Pending() != 0 {
		t.Fatalf("Pending = %d after Flush", l.Pending())
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
// once Flush returns, no applied record is reachable from it, so an
// applied row's vectors are garbage as soon as the consumer drops them.
// A closed log refuses appends.
func TestLogDropsAppliedRecords(t *testing.T) {
	l := NewLog(func(*Record) {})
	const n = 4
	var freed atomic.Int32
	for i := 0; i < n; i++ {
		r := &Record{Type: RecordInsert, ID: int64(i), Vectors: [][]float32{make([]float32, 64)}}
		runtime.SetFinalizer(r, func(*Record) { freed.Add(1) })
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Append(&Record{Type: RecordDelete, ID: 1})
	l.Flush()
	for deadline := time.Now().Add(5 * time.Second); freed.Load() < n && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := freed.Load(); got != n {
		t.Fatalf("%d of %d applied records still reachable after Flush", n-got, n)
	}
	l.Close()
	if err := l.Append(&Record{Type: RecordInsert, ID: 2}); err == nil {
		t.Fatal("append after close accepted")
	}
}

func TestLogConcurrentAppend(t *testing.T) {
	var applied atomic.Int64
	l := NewLog(func(*Record) { applied.Add(1) })
	defer l.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Append(&Record{Type: RecordInsert, ID: int64(w*1000 + i)})
			}
		}(w)
	}
	wg.Wait()
	l.Flush()
	if applied.Load() != 800 {
		t.Fatalf("applied %d, want 800", applied.Load())
	}
}

// batchFixture builds a marshaled batch and the byte offset at which each
// complete record frame ends, so truncation tests know exactly which prefix
// must survive any cut.
func batchFixture(n int) (records []*Record, blob []byte, frameEnds []int) {
	for i := 0; i < n; i++ {
		records = append(records, &Record{
			Type:    RecordInsert,
			ID:      int64(100 + i),
			Vectors: [][]float32{{float32(i), float32(i) + 0.5}},
			Attrs:   []int64{int64(i * 7)},
		})
	}
	blob = MarshalBatch(records)
	off := 0
	for range records {
		l := int(uint32(blob[off]) | uint32(blob[off+1])<<8 | uint32(blob[off+2])<<16 | uint32(blob[off+3])<<24)
		off += 4 + l
		frameEnds = append(frameEnds, off)
	}
	return records, blob, frameEnds
}

func TestBatchRoundTrip(t *testing.T) {
	records, blob, _ := batchFixture(5)
	got, err := ReplayBatch(blob)
	if err != nil {
		t.Fatalf("clean batch replay: %v", err)
	}
	if len(got) != len(records) {
		t.Fatalf("replayed %d records, want %d", len(got), len(records))
	}
	for i, r := range got {
		if r.ID != records[i].ID {
			t.Fatalf("record %d: id %d, want %d", i, r.ID, records[i].ID)
		}
	}
	if out, err := ReplayBatch(nil); err != nil || len(out) != 0 {
		t.Fatalf("empty blob: %v %v", out, err)
	}
}

// TestBatchTornTailRecovery is the crash-recovery contract: truncate the
// batch blob at EVERY possible offset — as a crash mid-upload would — and
// replay. The longest prefix of complete records must always come back; a
// cut that doesn't land exactly on a frame boundary must be reported as a
// torn tail (wrapping ErrTorn), never as a panic and never silently.
func TestBatchTornTailRecovery(t *testing.T) {
	records, blob, frameEnds := batchFixture(5)
	for cut := 0; cut <= len(blob); cut++ {
		wantRecords := 0
		for _, end := range frameEnds {
			if end <= cut {
				wantRecords++
			}
		}
		onBoundary := cut == 0 || (wantRecords > 0 && frameEnds[wantRecords-1] == cut)
		got, err := ReplayBatch(blob[:cut])
		if len(got) != wantRecords {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, len(got), wantRecords)
		}
		for i := range got {
			if got[i].ID != records[i].ID {
				t.Fatalf("cut=%d: record %d has id %d, want %d", cut, i, got[i].ID, records[i].ID)
			}
		}
		if onBoundary {
			if err != nil {
				t.Fatalf("cut=%d on frame boundary: unexpected error %v", cut, err)
			}
		} else if !errors.Is(err, ErrTorn) {
			t.Fatalf("cut=%d mid-frame: error %v does not wrap ErrTorn", cut, err)
		}
	}
}

// TestBatchCorruptTailRecovery flips one byte in the LAST record's payload:
// the CRC must reject it, the clean prefix must survive, and the error must
// mark the blob as torn.
func TestBatchCorruptTailRecovery(t *testing.T) {
	records, blob, frameEnds := batchFixture(4)
	corrupt := append([]byte(nil), blob...)
	corrupt[frameEnds[2]+6] ^= 0x40 // inside record 3's frame
	got, err := ReplayBatch(corrupt)
	if !errors.Is(err, ErrTorn) {
		t.Fatalf("corrupted tail: error %v does not wrap ErrTorn", err)
	}
	if len(got) != 3 {
		t.Fatalf("recovered %d records, want clean prefix of 3", len(got))
	}
	for i := range got {
		if got[i].ID != records[i].ID {
			t.Fatalf("record %d: id %d, want %d", i, got[i].ID, records[i].ID)
		}
	}
	// A frame length pointing far past the blob must not allocate or crash.
	evil := append([]byte(nil), blob[:frameEnds[0]]...)
	evil = append(evil, 0xFF, 0xFF, 0xFF, 0x7F)
	got, err = ReplayBatch(evil)
	if !errors.Is(err, ErrTorn) || len(got) != 1 {
		t.Fatalf("overrun frame: got %d records, err %v", len(got), err)
	}
}
