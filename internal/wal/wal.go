// Package wal implements the write-ahead log of Sec. 5.1/5.3: heavy write
// requests are first materialized as log records and acknowledged, then a
// background thread consumes them ("users may not immediately see the
// inserted data"), and Flush blocks until all pending operations are
// applied. In the distributed deployment the writer ships these logs —
// rather than data — to shared storage, Aurora-style.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sync"

	"vectordb/internal/obs"
)

// RecordType tags a log record.
type RecordType uint8

const (
	// RecordInsert carries one entity (ID, vectors per field, attrs).
	RecordInsert RecordType = 1
	// RecordDelete carries one entity ID.
	RecordDelete RecordType = 2
)

// Record is one logical operation.
type Record struct {
	Type    RecordType
	ID      int64
	Vectors [][]float32 // per vector field; nil for deletes
	Attrs   []int64     // per attribute field; nil for deletes
	Cats    []string    // per categorical field; nil for deletes
}

// Marshal encodes the record with a CRC32 trailer.
func (r *Record) Marshal() []byte {
	size := 1 + 8 + 2
	for _, v := range r.Vectors {
		size += 4 + 4*len(v)
	}
	size += 2 + 8*len(r.Attrs)
	size += 2
	for _, c := range r.Cats {
		size += 4 + len(c)
	}
	buf := make([]byte, 0, size+4)
	buf = append(buf, byte(r.Type))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.ID))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Vectors)))
	for _, v := range r.Vectors {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
		for _, x := range v {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(x))
		}
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Attrs)))
	for _, a := range r.Attrs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(a))
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Cats)))
	for _, c := range r.Cats {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c)))
		buf = append(buf, c...)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// Unmarshal decodes a record, verifying the CRC.
func Unmarshal(data []byte) (*Record, error) {
	if len(data) < 15 {
		return nil, fmt.Errorf("wal: record too short (%d bytes)", len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("wal: CRC mismatch")
	}
	r := &Record{Type: RecordType(body[0])}
	if r.Type != RecordInsert && r.Type != RecordDelete {
		return nil, fmt.Errorf("wal: unknown record type %d", body[0])
	}
	r.ID = int64(binary.LittleEndian.Uint64(body[1:]))
	off := 9
	nv := int(binary.LittleEndian.Uint16(body[off:]))
	off += 2
	r.Vectors = make([][]float32, nv)
	for i := 0; i < nv; i++ {
		if off+4 > len(body) {
			return nil, fmt.Errorf("wal: truncated vector header")
		}
		l := int(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		if off+4*l > len(body) {
			return nil, fmt.Errorf("wal: truncated vector body")
		}
		v := make([]float32, l)
		for j := range v {
			v[j] = math.Float32frombits(binary.LittleEndian.Uint32(body[off:]))
			off += 4
		}
		r.Vectors[i] = v
	}
	if off+2 > len(body) {
		return nil, fmt.Errorf("wal: truncated attr header")
	}
	na := int(binary.LittleEndian.Uint16(body[off:]))
	off += 2
	if off+8*na > len(body) {
		return nil, fmt.Errorf("wal: attr section overruns")
	}
	r.Attrs = make([]int64, na)
	for i := range r.Attrs {
		r.Attrs[i] = int64(binary.LittleEndian.Uint64(body[off:]))
		off += 8
	}
	if off+2 > len(body) {
		return nil, fmt.Errorf("wal: truncated cat header")
	}
	nc := int(binary.LittleEndian.Uint16(body[off:]))
	off += 2
	r.Cats = make([]string, nc)
	for i := 0; i < nc; i++ {
		if off+4 > len(body) {
			return nil, fmt.Errorf("wal: truncated cat length")
		}
		l := int(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		if off+l > len(body) {
			return nil, fmt.Errorf("wal: cat value overruns")
		}
		r.Cats[i] = string(body[off : off+l])
		off += l
	}
	if off != len(body) {
		return nil, fmt.Errorf("wal: %d trailing bytes", len(body)-off)
	}
	if len(r.Vectors) == 0 {
		r.Vectors = nil
	}
	if len(r.Attrs) == 0 {
		r.Attrs = nil
	}
	if len(r.Cats) == 0 {
		r.Cats = nil
	}
	return r, nil
}

// ErrTorn marks a batch blob whose tail is torn or corrupted — a write that
// died partway (truncated frame) or bit rot (CRC mismatch). ReplayBatch
// wraps it so callers can distinguish "recovered a prefix" from "the blob is
// garbage from the first byte".
var ErrTorn = errors.New("wal: torn batch tail")

// MarshalBatch encodes a batch of records as the durable blob the writer
// ships to shared storage (Sec. 5.3): each record is length-prefixed, and
// each record carries its own CRC32 trailer.
func MarshalBatch(records []*Record) []byte {
	var out []byte
	for _, r := range records {
		b := r.Marshal()
		out = binary.LittleEndian.AppendUint32(out, uint32(len(b)))
		out = append(out, b...)
	}
	return out
}

// ReplayBatch decodes a batch blob, recovering the longest clean prefix of
// records. A truncated or corrupted tail does not fail the whole blob:
// the intact prefix is returned together with an error wrapping ErrTorn, so
// crash recovery keeps every record that was durably written before the
// tear (the replay contract of Sec. 5.3). A fully clean blob returns a nil
// error. ReplayBatch never panics on hostile input.
func ReplayBatch(blob []byte) ([]*Record, error) {
	var out []*Record
	off := 0
	for off < len(blob) {
		if off+4 > len(blob) {
			return out, fmt.Errorf("%w: truncated frame header at offset %d", ErrTorn, off)
		}
		l := int(binary.LittleEndian.Uint32(blob[off:]))
		if l < 0 || off+4+l > len(blob) {
			return out, fmt.Errorf("%w: frame at offset %d claims %d bytes, %d remain", ErrTorn, off, l, len(blob)-off-4)
		}
		r, err := Unmarshal(blob[off+4 : off+4+l])
		if err != nil {
			return out, fmt.Errorf("%w: record at offset %d: %v", ErrTorn, off, err)
		}
		out = append(out, r)
		off += 4 + l
	}
	return out, nil
}

// Log is the in-memory apply queue in front of a collection: Append queues
// the record and returns immediately; a background goroutine applies
// records in order; Flush blocks until everything appended so far has been
// applied. The log keeps no record once it is applied — the queue slot is
// cleared as it is popped — so durability is the caller's: the distributed
// writer ships each batch with MarshalBatch before it appends, and
// ReplayBatch is the recovery path (Sec. 5.3).
type Log struct {
	apply func(*Record)

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*Record
	applied int64
	enq     int64
	closed  bool

	appendC  *obs.Counter // incremented per append
	appliedC *obs.Counter // incremented per record applied
}

// Observe attaches telemetry counters for appended and applied records.
// Either may be nil (obs counters are nil-safe); call before concurrent
// use of the log.
func (l *Log) Observe(appends, applied *obs.Counter) {
	l.mu.Lock()
	l.appendC, l.appliedC = appends, applied
	l.mu.Unlock()
}

// NewLog starts a log whose records are consumed by apply.
func NewLog(apply func(*Record)) *Log {
	l := &Log{apply: apply}
	l.cond = sync.NewCond(&l.mu)
	//lint:allow goleak run exits when Close sets closed and broadcasts the cond; a cond-based drain loop has no channel for the analyzer to see
	go l.run()
	return l
}

// Append queues r for asynchronous application.
func (l *Log) Append(r *Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log closed")
	}
	l.queue = append(l.queue, r)
	l.enq++
	l.appendC.Inc()
	l.cond.Broadcast()
	return nil
}

func (l *Log) run() {
	l.mu.Lock()
	for {
		for len(l.queue) == 0 && !l.closed {
			l.cond.Wait()
		}
		if len(l.queue) == 0 && l.closed {
			l.mu.Unlock()
			return
		}
		r := l.queue[0]
		// Clear the slot: the backing array outlives the pop until the
		// next append reallocates, and must not keep r alive.
		l.queue[0] = nil
		l.queue = l.queue[1:]
		l.mu.Unlock()
		l.apply(r)
		l.mu.Lock()
		l.applied++
		l.appliedC.Inc()
		l.cond.Broadcast()
	}
}

// Flush blocks until every record appended before the call is applied —
// the flush() API of Sec. 5.1.
func (l *Log) Flush() {
	l.mu.Lock()
	target := l.enq
	for l.applied < target {
		l.cond.Wait()
	}
	l.mu.Unlock()
}

// Pending reports queued-but-unapplied records.
func (l *Log) Pending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.queue)
}

// Close stops the background applier after draining the queue.
func (l *Log) Close() {
	l.mu.Lock()
	l.closed = true
	l.cond.Broadcast()
	for len(l.queue) > 0 {
		l.cond.Wait()
	}
	l.mu.Unlock()
}
