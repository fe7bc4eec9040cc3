package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/graph"
	"repro/internal/wire"
)

// Write-ahead-log segment format (PCCW), version 1. All integers
// little-endian. A segment holds a contiguous run of batch records:
//
//	offset  size  field
//	0       4     magic "PCCW"
//	4       4     format version (currently 1)
//	8       8     firstSeq — sequence number of the segment's first record
//
// followed by zero or more records, each:
//
//	offset  size  field
//	0       1     kind (1 = span batch, 2 = grow)
//	1       8     seq — must be firstSeq + record index (contiguous)
//	9       4     payload length in bytes
//	13      len   payload
//	13+len  4     CRC32 (IEEE) of bytes [0, 13+len)
//
// A span-batch payload is the batch's undirected edges as fixed-width
// records (u uint32, v uint32 — even arcs only; mirror arcs are
// implicit, as in PCCG). A grow payload is the new vertex count
// (uint64). Appends are fsynced per batch, so the only incomplete
// record a crash can leave is the last one: the decoder stops at the
// first record whose header, payload, CRC, or sequence number is bad
// and reports the byte offset, and recovery truncates the segment
// there — the torn tail is dropped, every record before it is kept.
const (
	walMagic      = "PCCW"
	walVersion    = 1
	walHeaderSize = 16
	recHeaderSize = 13
)

// WAL record kinds.
const (
	KindSpan byte = 1 // payload: the batch's undirected edges
	KindGrow byte = 2 // payload: the new vertex count
)

// Record is one decoded WAL record: a span batch (Kind KindSpan, Span
// set) or a vertex-set grow (Kind KindGrow, N set).
type Record struct {
	Seq  uint64
	Kind byte
	Span graph.EdgeSpan
	N    int
}

// appendSegmentHeader appends a PCCW segment header for a segment
// whose first record will carry firstSeq.
func appendSegmentHeader(buf []byte, firstSeq uint64) []byte {
	buf = append(buf, walMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, walVersion)
	return binary.LittleEndian.AppendUint64(buf, firstSeq)
}

// appendRecordFrame appends one framed record: header, the payload
// bytes produced by the callback, a patched-in payload length, and the
// CRC footer — shared by both record kinds so they cannot drift on the
// checksum discipline.
func appendRecordFrame(buf []byte, kind byte, seq uint64, payload func([]byte) []byte) []byte {
	start := len(buf)
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // payload length, patched below
	buf = payload(buf)
	binary.LittleEndian.PutUint32(buf[start+9:], uint32(len(buf)-start-recHeaderSize))
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// AppendSpanRecord appends a span-batch record: the span's even arcs
// as fixed-width edge records. It reads each edge as (U[2i], V[2i]),
// not as a block copy of U: Service.IngestSpan ingests exactly those
// arcs, and incremental.validateSpan does not check that U[2i+1]
// mirrors V[2i], so the log holds what was ingested even for a span
// whose mirror arcs disagree.
func AppendSpanRecord(buf []byte, seq uint64, span graph.EdgeSpan) []byte {
	return appendRecordFrame(buf, KindSpan, seq, func(b []byte) []byte {
		for i := 0; i < span.Len(); i++ {
			u, v := span.Edge(i)
			b = binary.LittleEndian.AppendUint32(b, uint32(u))
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
		return b
	})
}

// AppendGrowRecord appends a grow record carrying the new vertex count.
func AppendGrowRecord(buf []byte, seq uint64, n int) []byte {
	return appendRecordFrame(buf, KindGrow, seq, func(b []byte) []byte {
		return binary.LittleEndian.AppendUint64(b, uint64(n))
	})
}

// DecodeSegment parses a PCCW segment. It returns the segment's
// firstSeq, every complete and checksummed record in order, and the
// byte offset of the first bad record (== len(data) when the whole
// segment decoded) — the truncation point for torn-tail repair. Only a
// bad segment header is an error: record-level damage terminates the
// decode cleanly instead, because a torn tail is an expected crash
// artifact, not corruption. Decoded spans are sized by the payload
// bytes actually present, never by a declared length alone, so corrupt
// lengths cannot force large allocations.
func DecodeSegment(data []byte) (firstSeq uint64, recs []Record, tornAt int, err error) {
	if len(data) < walHeaderSize {
		return 0, nil, 0, fmt.Errorf("durable: wal segment truncated at %d bytes (header is %d)", len(data), walHeaderSize)
	}
	if string(data[0:4]) != walMagic {
		return 0, nil, 0, fmt.Errorf("durable: bad wal magic %q (want %q)", data[0:4], walMagic)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != walVersion {
		return 0, nil, 0, fmt.Errorf("durable: unsupported wal version %d (want %d)", v, walVersion)
	}
	firstSeq = binary.LittleEndian.Uint64(data[8:16])
	off := walHeaderSize
	for {
		rec, next, ok := decodeRecord(data, off, firstSeq+uint64(len(recs)))
		if !ok {
			return firstSeq, recs, off, nil
		}
		recs = append(recs, rec)
		off = next
	}
}

// decodeRecord decodes one record at data[off:], requiring the
// sequence number wantSeq (records are contiguous within a segment).
// ok is false when the record is incomplete, checksummed wrong, or
// structurally invalid — the torn-tail conditions.
func decodeRecord(data []byte, off int, wantSeq uint64) (rec Record, next int, ok bool) {
	if len(data)-off < recHeaderSize+4 {
		return Record{}, 0, false
	}
	kind := data[off]
	seq := binary.LittleEndian.Uint64(data[off+1:])
	plen := int64(binary.LittleEndian.Uint32(data[off+9:]))
	if plen > int64(len(data)-off-recHeaderSize-4) {
		return Record{}, 0, false
	}
	end := off + recHeaderSize + int(plen)
	body, foot := data[off:end], data[end:end+4]
	if binary.LittleEndian.Uint32(foot) != crc32.ChecksumIEEE(body) {
		return Record{}, 0, false
	}
	if seq != wantSeq {
		return Record{}, 0, false
	}
	payload := data[off+recHeaderSize : end]
	switch kind {
	case KindSpan:
		if plen%8 != 0 {
			return Record{}, 0, false
		}
		// A record is the little-endian form of U[2i], U[2i+1]: copy
		// the payload into U, mirror it into V, and treat an endpoint
		// outside int32 as damage.
		m := int(plen / 8)
		span := graph.EdgeSpan{U: make([]int32, 2*m), V: make([]int32, 2*m)}
		wire.Load(span.U, payload)
		if wire.Mirror(span.U, span.V) > math.MaxInt32 {
			return Record{}, 0, false
		}
		rec = Record{Seq: seq, Kind: kind, Span: span}
	case KindGrow:
		if plen != 8 {
			return Record{}, 0, false
		}
		n := binary.LittleEndian.Uint64(payload)
		if n > math.MaxInt32 {
			return Record{}, 0, false
		}
		rec = Record{Seq: seq, Kind: kind, N: int(n)}
	default:
		return Record{}, 0, false
	}
	return rec, end + 4, true
}
