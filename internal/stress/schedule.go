package stress

import "math/rand"

// OpKind is one kind of workload operation.
type OpKind int

const (
	OpInsert   OpKind = iota // insert a batch of N new entities
	OpDelete                 // delete up to N previously acknowledged IDs
	OpSearch                 // run one top-k query
	OpFlush                  // force a flush barrier
	OpSnapshot               // acquire + release a snapshot (monotonicity probe)
	OpIndex                  // manual index build over current segments
)

func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpSearch:
		return "search"
	case OpFlush:
		return "flush"
	case OpSnapshot:
		return "snapshot"
	case OpIndex:
		return "index"
	}
	return "unknown"
}

// Op is one scheduled operation. N sizes insert/delete batches; Arg is raw
// randomness the executor uses for data-dependent choices (which IDs to
// delete, query direction), keeping the schedule itself a pure function of
// the seed even though the *targets* depend on what earlier ops
// acknowledged.
type Op struct {
	Kind OpKind
	N    int
	Arg  uint64
}

// Stream is an infinite, deterministic operation stream for one worker.
// Two streams with the same (seed, worker) yield identical op sequences.
type Stream struct {
	rng *rand.Rand
}

// NewStream derives worker w's op stream from the harness seed. The mixing
// constant decorrelates adjacent workers sharing a seed.
func NewStream(seed int64, worker int) *Stream {
	mix := uint64(seed) ^ (uint64(worker+1) * 0x9E3779B97F4A7C15)
	return &Stream{rng: rand.New(rand.NewSource(int64(mix)))}
}

// Next returns the stream's next operation. Weights favour inserts so the
// collection grows enough to exercise flush, merge and auto-indexing.
func (s *Stream) Next() Op {
	op := Op{Arg: uint64(s.rng.Int63())}
	switch p := s.rng.Intn(100); {
	case p < 45:
		op.Kind = OpInsert
		op.N = 1 + s.rng.Intn(16)
	case p < 60:
		op.Kind = OpDelete
		op.N = 1 + s.rng.Intn(4)
	case p < 80:
		op.Kind = OpSearch
	case p < 90:
		op.Kind = OpFlush
	case p < 97:
		op.Kind = OpSnapshot
	default:
		op.Kind = OpIndex
	}
	return op
}

// VectorForID derives entity ID's vector deterministically, so the harness
// can reconstruct any acknowledged row's exact vector for brute-force
// verification without storing it. Components lie in [-1, 1).
func VectorForID(id int64, dim int) []float32 {
	x := uint64(id)*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
	v := make([]float32, dim)
	for j := range v {
		x ^= x >> 33
		x *= 0xFF51AFD7ED558CCD
		x ^= x >> 33
		v[j] = float32(int32(uint32(x))) / float32(1<<31)
		x += 0x9E3779B97F4A7C15
	}
	return v
}
