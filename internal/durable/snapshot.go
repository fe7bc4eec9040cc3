package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/wire"
)

// Snapshot file format (PCCS), version 1. All integers little-endian,
// following the graph package's PCCG conventions (fixed-width records,
// header-declared counts validated against the bytes that actually
// arrived) plus a CRC32 footer, because a snapshot — unlike a graph
// file — is read back after crashes:
//
//	offset  size  field
//	0       4     magic "PCCS"
//	4       4     format version (currently 1)
//	8       8     n — vertex count (uint64, must fit int32)
//	16      8     seq — batch sequence number the labeling reflects
//	24      4·n   label records: int32 LE, one per vertex
//	24+4n   4     CRC32 (IEEE) of bytes [0, 24+4n)
//
// The labels must be a canonical engine labeling: labels[v] is the
// minimum vertex id of v's component, so labels[v] ≤ v and
// labels[labels[v]] == labels[v]. The decoder enforces this, which is
// what lets recovery feed the labels straight back into the
// incremental engine's depth-one parent forest (RestoreLabels).
const (
	snapMagic      = "PCCS"
	snapVersion    = 1
	snapHeaderSize = 24
)

// AppendSnapshot appends the PCCS encoding of (seq, labels) to buf and
// returns the extended slice.
func AppendSnapshot(buf []byte, seq uint64, labels []int32) []byte {
	start := len(buf)
	buf = append(buf, snapMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, snapVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(labels)))
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = wire.AppendLE(buf, labels)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// WriteSnapshot writes the PCCS encoding of (seq, labels) to w.
func WriteSnapshot(w io.Writer, seq uint64, labels []int32) error {
	_, err := w.Write(AppendSnapshot(make([]byte, 0, snapHeaderSize+4*len(labels)+4), seq, labels))
	return err
}

// DecodeSnapshot parses a PCCS snapshot. It validates the magic,
// version, CRC, exact length, and the canonical-labeling invariant,
// and rejects truncated data and trailing garbage with descriptive
// errors. The labels slice is sized by the bytes that actually
// arrived, never by the header alone, so a corrupt header cannot force
// a huge allocation.
func DecodeSnapshot(data []byte) (seq uint64, labels []int32, err error) {
	if len(data) < snapHeaderSize+4 {
		return 0, nil, fmt.Errorf("durable: snapshot truncated at %d bytes (header is %d)", len(data), snapHeaderSize+4)
	}
	if string(data[0:4]) != snapMagic {
		return 0, nil, fmt.Errorf("durable: bad snapshot magic %q (want %q)", data[0:4], snapMagic)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != snapVersion {
		return 0, nil, fmt.Errorf("durable: unsupported snapshot version %d (want %d)", v, snapVersion)
	}
	n := binary.LittleEndian.Uint64(data[8:16])
	seq = binary.LittleEndian.Uint64(data[16:24])
	want := uint64(snapHeaderSize) + 4*n + 4
	if n > uint64(1)<<31-1 || uint64(len(data)) != want {
		return 0, nil, fmt.Errorf("durable: snapshot declares %d labels but holds %d bytes (want %d)", n, len(data), want)
	}
	body, foot := data[:len(data)-4], data[len(data)-4:]
	if got, sum := binary.LittleEndian.Uint32(foot), crc32.ChecksumIEEE(body); got != sum {
		return 0, nil, fmt.Errorf("durable: snapshot CRC mismatch: stored %08x, computed %08x", got, sum)
	}
	labels = make([]int32, n)
	wire.Load(labels, data[snapHeaderSize:])
	for v, l := range labels {
		if l < 0 || int(l) > v || labels[l] != l {
			return 0, nil, fmt.Errorf("durable: snapshot label[%d] = %d is not canonical (want the minimum vertex of the component)", v, l)
		}
	}
	return seq, labels, nil
}
