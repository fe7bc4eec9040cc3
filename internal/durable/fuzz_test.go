package durable

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzSnapshotDecode hardens DecodeSnapshot against arbitrary bytes:
// it must never panic or over-allocate, and anything it accepts must
// be a canonical labeling that re-encodes to exactly the input (the
// format has one valid encoding per labeling, so decode∘encode is the
// identity on accepted inputs).
func FuzzSnapshotDecode(f *testing.F) {
	f.Add(AppendSnapshot(nil, 0, nil))
	f.Add(AppendSnapshot(nil, 7, []int32{0, 0, 2, 2, 0}))
	good := AppendSnapshot(nil, 3, []int32{0, 1, 1})
	f.Add(good[:len(good)-1]) // truncated
	f.Add(append(good, 0x00)) // trailing garbage
	flipped := append([]byte(nil), good...)
	flipped[9] ^= 0x40
	f.Add(flipped) // corrupt count
	f.Add([]byte("PCCS"))
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, labels, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		for v, l := range labels {
			if l < 0 || int(l) > v || labels[l] != l {
				t.Fatalf("decoder accepted non-canonical label[%d] = %d", v, l)
			}
		}
		if re := AppendSnapshot(nil, seq, labels); !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not the identity: %d byte input, %d byte re-encoding", len(data), len(re))
		}
	})
}

// FuzzWALDecode hardens DecodeSegment: arbitrary bytes must never
// panic or over-allocate, a decode error is only ever a segment-header
// problem, and whatever records are accepted must re-encode to exactly
// the accepted prefix data[:tornAt] with contiguous sequence numbers.
func FuzzWALDecode(f *testing.F) {
	seg := appendSegmentHeader(nil, 5)
	seg = AppendSpanRecord(seg, 5, span([2]int{0, 1}, [2]int{3, 2}))
	seg = AppendGrowRecord(seg, 6, 9)
	seg = AppendSpanRecord(seg, 7, span())
	f.Add(seg)
	f.Add(seg[:len(seg)-3])    // torn tail
	f.Add(append(seg, 0xff))   // trailing garbage
	f.Add(seg[:walHeaderSize]) // empty segment
	f.Add([]byte("PCCW"))
	f.Fuzz(func(t *testing.T, data []byte) {
		firstSeq, recs, tornAt, err := DecodeSegment(data)
		if err != nil {
			return
		}
		if tornAt < walHeaderSize || tornAt > len(data) {
			t.Fatalf("tornAt %d outside [%d, %d]", tornAt, walHeaderSize, len(data))
		}
		re := appendSegmentHeader(nil, firstSeq)
		for i, r := range recs {
			if r.Seq != firstSeq+uint64(i) {
				t.Fatalf("record %d has seq %d, want contiguous %d", i, r.Seq, firstSeq+uint64(i))
			}
			switch r.Kind {
			case KindSpan:
				re = AppendSpanRecord(re, r.Seq, r.Span)
			case KindGrow:
				re = AppendGrowRecord(re, r.Seq, r.N)
			default:
				t.Fatalf("record %d has unknown kind %d", i, r.Kind)
			}
		}
		if !bytes.Equal(re, data[:tornAt]) {
			t.Fatalf("accepted prefix does not re-encode: %d records, tornAt %d, re-encoded %d bytes", len(recs), tornAt, len(re))
		}
	})
}

// FuzzManifestDecode hardens decodeManifest: arbitrary bytes must never
// panic, and whatever it accepts must be a list of recovery roots that
// re-encodes and decodes to the same roots — bare snapshot file names,
// and at most one identity root, in [0, 2^31) and last.
func FuzzManifestDecode(f *testing.F) {
	f.Add(encodeManifest([]manifestEntry{{n: 6}}))
	f.Add(encodeManifest([]manifestEntry{{file: "snap-0000000000000002.pccs", seq: 2}, {n: 6}}))
	f.Add(encodeManifest([]manifestEntry{{file: "snap-0000000000000006.pccs", seq: 6}, {file: "snap-0000000000000004.pccs", seq: 4}}))
	f.Add(sealManifest("identity 6", "snapshot snap-0000000000000002.pccs 2"))
	f.Add(sealManifest("identity 2147483648"))
	f.Add(sealManifest("identity -1"))
	good := encodeManifest([]manifestEntry{{n: 6}})
	f.Add(good[:len(good)-2]) // truncated footer
	f.Add([]byte("PCCM 1\ncrc 00000000\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := decodeManifest(data)
		if err != nil {
			return
		}
		if len(entries) == 0 {
			t.Fatal("decoder accepted a manifest with no roots")
		}
		for i, e := range entries {
			if e.identity() {
				if i != len(entries)-1 || e.n < 0 || e.n > maxIdentityN || e.seq != 0 {
					t.Fatalf("decoder accepted identity root %d of %d: %+v", i, len(entries), e)
				}
			} else if e.file != filepath.Base(e.file) {
				t.Fatalf("decoder accepted snapshot name %q", e.file)
			}
		}
		again, err := decodeManifest(encodeManifest(entries))
		if err != nil {
			t.Fatalf("re-encoding of accepted roots %v rejected: %v", entries, err)
		}
		if !reflect.DeepEqual(again, entries) {
			t.Fatalf("roots %v re-decode as %v", entries, again)
		}
	})
}
