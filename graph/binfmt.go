package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// Binary graph format, version 1. All integers are little-endian:
//
//	offset  size  field
//	0       4     magic "PCCG"
//	4       4     format version (currently 1)
//	8       8     n — vertex count (uint64, must fit int32)
//	16      8     m — undirected edge count (uint64)
//	24      8·m   edge records: u uint32, v uint32, in insertion order
//
// The format stores one record per undirected edge (the mirror arc is
// implicit, as in WriteEdgeList) and preserves edge order, so a
// text→binary→text round trip is byte-identical. Record k is the
// little-endian form of Graph.U[2k], U[2k+1] — the arc column already
// holds each edge as an interleaved [u v] pair. Fixed-width records
// keep the loader a straight memory scan: at 8 bytes per edge the file
// is smaller than the equivalent text for vertex ids above ~3 digits,
// and decoding is one bounds check and two loads per edge instead of a
// line split and two integer parses.
const (
	binMagic      = "PCCG"
	binVersion    = 1
	binHeaderSize = 24
	// binChunkEdges is the encode and decode buffer granularity:
	// 1 MiB of edge records.
	binChunkEdges = 1 << 17
)

// WriteBinary writes the graph in the binary format above. It is the
// fast-path counterpart of WriteEdgeList; ReadBinary and ReadAuto
// consume it.
func (g *Graph) WriteBinary(w io.Writer) error {
	var hdr [binHeaderSize]byte
	copy(hdr[0:4], binMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], binVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(g.N))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(g.NumEdges()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	buf := make([]byte, 0, binChunkEdges*8)
	for i := 0; i < len(g.U); i += 2 {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(g.U[i]))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(g.V[i]))
		if len(buf) == cap(buf) {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// ReadBinary parses the format written by WriteBinary. It validates
// the magic, version, and every edge endpoint, and rejects truncated
// files and trailing garbage with descriptive errors. It is a thin
// wrapper over ReadBinarySpan, which decodes straight into the
// columnar arc representation the Graph adopts without a copy.
func ReadBinary(r io.Reader) (*Graph, error) {
	return readBinary(r, remainingSize(r))
}

// readBinary is ReadBinary given the byte count r holds, or -1 when
// that is unknown.
func readBinary(r io.Reader, size int64) (*Graph, error) {
	n, span, err := readBinarySpan(r, size)
	if err != nil {
		return nil, err
	}
	g := New(n)
	g.U, g.V = span.U, span.V
	return g, nil
}

// ReadBinarySpan decodes the binary format directly into an arc-pair
// span and the vertex count it was validated against — the columnar
// loader hook: the decoded columns are exactly the arc layout Graph
// stores (ReadBinary adopts them without a copy), and streaming
// consumers can slice the span into ingest batches without ever
// materializing a [][2]int edge list.
//
// The two columns are the only allocation that grows with the input.
// When r is a regular file whose remaining size matches the header,
// they are allocated up front and the records are decoded into them
// one fixed-size chunk at a time. Otherwise the records are read in
// chunks first and the columns allocated once the bytes have arrived,
// so a corrupt header declaring a huge m cannot force a huge
// allocation.
func ReadBinarySpan(r io.Reader) (int, EdgeSpan, error) {
	return readBinarySpan(r, remainingSize(r))
}

// remainingSize returns the number of bytes left in r from its current
// offset when r is a regular file, and -1 for any other reader.
func remainingSize(r io.Reader) int64 {
	f, ok := r.(*os.File)
	if !ok {
		return -1
	}
	st, err := f.Stat()
	if err != nil || !st.Mode().IsRegular() {
		return -1
	}
	off, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return -1
	}
	return st.Size() - off
}

// readBinarySpan is ReadBinarySpan given the byte count r holds, or -1
// when that is unknown.
func readBinarySpan(r io.Reader, size int64) (int, EdgeSpan, error) {
	var hdr [binHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, EdgeSpan{}, fmt.Errorf("graph: binary header: %w", err)
	}
	if string(hdr[0:4]) != binMagic {
		return 0, EdgeSpan{}, fmt.Errorf("graph: bad binary magic %q (want %q)", hdr[0:4], binMagic)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != binVersion {
		return 0, EdgeSpan{}, fmt.Errorf("graph: unsupported binary format version %d (want %d)", v, binVersion)
	}
	n := binary.LittleEndian.Uint64(hdr[8:16])
	m := binary.LittleEndian.Uint64(hdr[16:24])
	if n > math.MaxInt32 {
		return 0, EdgeSpan{}, fmt.Errorf("graph: vertex count %d exceeds int32 range", n)
	}
	if m > math.MaxInt32 {
		return 0, EdgeSpan{}, fmt.Errorf("graph: edge count %d exceeds int32 range", m)
	}
	if size == binHeaderSize+8*int64(m) {
		span, err := readSizedEdges(r, n, m)
		return int(n), span, err
	}
	span, err := readUnsizedEdges(r, n, m)
	return int(n), span, err
}

// readSizedEdges decodes m records whose arrival the file size has
// vouched for: the columns are allocated first, and each chunk is
// decoded into them as soon as it is read.
func readSizedEdges(r io.Reader, n, m uint64) (EdgeSpan, error) {
	span := EdgeSpan{U: make([]int32, 2*m), V: make([]int32, 2*m)}
	buf := make([]byte, 8*min(m, binChunkEdges))
	for done := uint64(0); done < m; {
		k := min(m-done, binChunkEdges)
		got, err := io.ReadFull(r, buf[:8*k])
		if err != nil {
			return EdgeSpan{}, edgeArrayError(err, done+uint64(got)/8, m)
		}
		if err := decodeEdges(span, done, buf[:8*k], n); err != nil {
			return EdgeSpan{}, err
		}
		done += k
	}
	var extra [1]byte
	if got, err := io.ReadFull(r, extra[:]); got > 0 {
		return EdgeSpan{}, fmt.Errorf("graph: trailing data after %d binary edges", m)
	} else if err != io.EOF {
		return EdgeSpan{}, edgeArrayError(err, m, m)
	}
	return span, nil
}

// readUnsizedEdges reads records in fixed chunks until the input ends
// (or overruns the header's m), then allocates the columns once and
// decodes the chunks into them. Memory follows the bytes that actually
// arrived, never the header alone.
func readUnsizedEdges(r io.Reader, n, m uint64) (EdgeSpan, error) {
	var chunks [][]byte
	var total uint64
	for total <= 8*m {
		// The last chunk reaches one byte past m's records, so trailing
		// data shows without reading the rest of it.
		buf := make([]byte, min(8*m+1-total, 8*binChunkEdges))
		got, err := io.ReadFull(r, buf)
		if got > 0 {
			chunks = append(chunks, buf[:got])
			total += uint64(got)
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			break
		}
		if err != nil {
			return EdgeSpan{}, edgeArrayError(err, total/8, m)
		}
	}
	if total < 8*m {
		return EdgeSpan{}, edgeArrayError(io.ErrUnexpectedEOF, total/8, m)
	}
	if total > 8*m {
		return EdgeSpan{}, fmt.Errorf("graph: trailing data after %d binary edges", m)
	}
	span := EdgeSpan{U: make([]int32, 2*m), V: make([]int32, 2*m)}
	done := uint64(0)
	for _, c := range chunks {
		if err := decodeEdges(span, done, c, n); err != nil {
			return EdgeSpan{}, err
		}
		done += uint64(len(c)) / 8
	}
	return span, nil
}

// edgeArrayError reports a failed read of the edge records after got
// of m edges arrived: running out of input is a truncation, anything
// else is the reader's own error.
func edgeArrayError(err error, got, m uint64) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("graph: binary edge array truncated after %d of %d edges", got, m)
	}
	return fmt.Errorf("graph: binary edge array: %w", err)
}

// decodeEdges decodes the whole records of data into span as edges
// first, first+1, …, checking every endpoint against n.
func decodeEdges(span EdgeSpan, first uint64, data []byte, n uint64) error {
	U, V := span.U[2*first:], span.V[2*first:]
	for j := 0; j+8 <= len(data); j += 8 {
		u := binary.LittleEndian.Uint32(data[j:])
		v := binary.LittleEndian.Uint32(data[j+4:])
		if uint64(u) >= n || uint64(v) >= n {
			return fmt.Errorf("graph: edge %d = {%d,%d} out of range [0,%d)", first+uint64(j/8), u, v, n)
		}
		i := j / 4
		U[i], U[i+1] = int32(u), int32(v)
		V[i], V[i+1] = int32(v), int32(u)
	}
	return nil
}

// ReadAuto reads a graph in either supported format, sniffing the
// binary magic: files starting with it go to ReadBinary, everything
// else to the parallel text loader (ReadEdgeListParallel with default
// workers). This is what cmd/ccfind and cmd/ccbench use, so both
// commands accept both formats transparently. A regular file's size
// is taken before the reader is buffered, so a binary file's columns
// are allocated once, up front.
func ReadAuto(r io.Reader) (*Graph, error) {
	size := remainingSize(r)
	br := bufio.NewReaderSize(r, 1<<16)
	head, err := br.Peek(len(binMagic))
	if err == nil && string(head) == binMagic {
		return readBinary(br, size)
	}
	if err != nil && err != io.EOF {
		return nil, err
	}
	// Shorter-than-magic inputs fall through: the text parser owns the
	// error message for them (e.g. "graph: empty input").
	return ReadEdgeListParallel(br, 0)
}
