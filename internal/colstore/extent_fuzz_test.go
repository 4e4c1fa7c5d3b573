package colstore

import (
	"encoding/binary"
	"testing"
)

// FuzzDecodeSegmentFile mirrors the index unmarshal fuzzers: the decoder
// must never panic or index out of bounds on arbitrary bytes, and any
// image it accepts must yield safe accessor views (the directory
// validation is what makes the later unsafe reinterpretation sound).
func FuzzDecodeSegmentFile(f *testing.F) {
	if buf, err := EncodeSegmentFile(3, testExtents(16, 4)); err == nil {
		f.Add(buf)
		// Seed structural mutants so the fuzzer starts at the boundaries.
		trunc := append([]byte(nil), buf[:len(buf)-9]...)
		f.Add(trunc)
		badLen := append([]byte(nil), buf...)
		binary.LittleEndian.PutUint64(badLen[extentHdrSize+16:], ^uint64(0)>>1)
		f.Add(badLen)
	}
	f.Add([]byte{})
	f.Add([]byte("SEGX"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sf, err := DecodeSegmentFile(data)
		if err != nil {
			return
		}
		// Accepted image: every accessor must stay in bounds.
		_ = sf.VerifyChecksums()
		for i := range sf.Extents {
			e := &sf.Extents[i]
			switch e.Kind {
			case ExtentVectors, ExtentIVFVecs, ExtentSQ8Params:
				v := e.Floats()
				if len(v) != int(e.Rows)*int(e.Dim) {
					t.Fatalf("extent %d: float view %d != rows*dim %d", i, len(v), int(e.Rows)*int(e.Dim))
				}
			case ExtentIDs, ExtentAttr:
				v := e.Int64s()
				if len(v) != int(e.Rows) {
					t.Fatalf("extent %d: id view %d != rows %d", i, len(v), e.Rows)
				}
			default:
				_ = e.Payload
			}
		}
		// A decoded file must re-encode and decode to the same shape.
		re, err := EncodeSegmentFile(sf.SegID, sf.Extents)
		if err != nil {
			t.Fatalf("re-encode of accepted image failed: %v", err)
		}
		sf2, err := DecodeSegmentFile(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(sf2.Extents) != len(sf.Extents) || sf2.SegID != sf.SegID {
			t.Fatalf("round-trip shape mismatch")
		}
	})
}
