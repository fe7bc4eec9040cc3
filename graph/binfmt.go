package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sync"

	"repro/internal/pool"
	"repro/internal/wire"
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
// holds each edge as an interleaved [u v] pair. So the loader reads
// the records straight into the bytes of U, and decoding is one pass
// that writes the mirror column V and keeps the largest endpoint for a
// single range check, instead of a line split and two integer parses
// per edge. Both columns are allocated first, unzeroed (wire.Column):
// the read fills every element of U and the pass every element of V,
// and a failed load drops them. At 8 bytes per edge the file is also smaller than the
// equivalent text for vertex ids above ~3 digits.
const (
	binMagic      = "PCCG"
	binVersion    = 1
	binHeaderSize = 24
	// binChunkEdges is the encode buffer and the unsized read's chunk:
	// 1 MiB of edge records. A file read splits it among its workers,
	// so the reads they have in flight together cover at most 1 MiB.
	binChunkEdges = 1 << 17
	// binMinReadEdges is the smallest read a file read gives one
	// worker, 128 KiB of records; splitting 1 MiB no finer caps a file
	// read at 8 workers. Readings so far come from a 2-CPU host, so
	// the cap is unmeasured beyond 2 workers.
	binMinReadEdges = 1 << 14
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
// columnar arc representation the Graph adopts without a copy; a
// regular file is decoded in parallel, as ReadBinarySpan describes.
func ReadBinary(r io.Reader) (*Graph, error) {
	return readBinary(r, sourceOf(r))
}

// readBinary is ReadBinary given what src knows about r.
func readBinary(r io.Reader, src binSource) (*Graph, error) {
	n, span, err := readBinarySpan(r, src)
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
// They are allocated before any record lands in them, without the
// runtime's zeroing (wire.Column): the load writes every element once,
// and a failed load drops them. When r is a regular file whose
// remaining size matches the header, they are allocated up front and
// filled in parallel: up to GOMAXPROCS workers (at most 8, and no more
// than the file has chunks) each pread disjoint ranges of records
// straight into the U column and mirror them into V in place, and the
// first bad edge in file order is the one reported. A file of one chunk, or a one-CPU process, gets
// one worker, which reads the chunks in order on the calling
// goroutine. Otherwise the records are read in chunks first
// and the columns allocated once the bytes have arrived, so a corrupt
// header declaring a huge m cannot force a huge allocation.
func ReadBinarySpan(r io.Reader) (int, EdgeSpan, error) {
	return readBinarySpan(r, sourceOf(r))
}

// binSource is what a binary reader knows about its input besides the
// io.Reader: the regular file behind it, if any, and how to read that
// file in parallel.
type binSource struct {
	f    *os.File // nil unless the input is a regular file
	off  int64    // the file offset the input starts at
	size int64    // bytes left in the file from off; -1 when f is nil
	// When the file's size matches its header, up to workers workers
	// pread chunk records at a time.
	workers, chunk int
}

// sourceOf describes r: for a regular file, its offset, the bytes left
// from there and the default parallel read; for any other reader, a
// size of -1.
func sourceOf(r io.Reader) binSource {
	none := binSource{size: -1}
	f, ok := r.(*os.File)
	if !ok {
		return none
	}
	st, err := f.Stat()
	if err != nil || !st.Mode().IsRegular() {
		return none
	}
	off, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return none
	}
	w := min(runtime.GOMAXPROCS(0), binChunkEdges/binMinReadEdges)
	return binSource{f: f, off: off, size: st.Size() - off, workers: w, chunk: binChunkEdges / w}
}

// readBinarySpan is ReadBinarySpan given what src knows about r.
func readBinarySpan(r io.Reader, src binSource) (int, EdgeSpan, error) {
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
	if src.size != binHeaderSize+8*int64(m) {
		span, err := readUnsizedEdges(r, n, m)
		return int(n), span, err
	}
	span, err := readFileEdges(src, n, m)
	return int(n), span, err
}

// readFileEdges decodes m records whose arrival the file size has
// vouched for. The columns are allocated first; then up to src.workers
// workers, one per chunk at most, claim chunks of src.chunk records on
// a locality-aware pool, pread each straight into the bytes of its
// slice of U and turn it into arcs in place (decodeArcs). Every chunk
// is read and checked, so the error kept — the one of the first
// failing chunk — is the one a sequential read would have met first.
// One byte past the last record is read to reject trailing data (the
// size may have changed since it was taken), and the file is left
// positioned after the records.
func readFileEdges(src binSource, n, m uint64) (EdgeSpan, error) {
	span := EdgeSpan{U: wire.Column(int(2 * m)), V: wire.Column(int(2 * m))}
	base := src.off + binHeaderSize
	chunk := uint64(src.chunk)
	workers := max(1, min(src.workers, int((m+chunk-1)/chunk)))
	var (
		mu       sync.Mutex
		firstAt  int
		firstErr error
	)
	fail := func(at int, err error) {
		mu.Lock()
		if firstErr == nil || at < firstAt {
			firstAt, firstErr = at, err
		}
		mu.Unlock()
	}
	p := pool.New(workers)
	p.Sharded(int(m), src.chunk, func(_, lo, hi int) bool {
		// Chunks are disjoint, so lo orders a chunk's error among them.
		part := span.Slice(lo, hi)
		if got, err := src.f.ReadAt(wire.Bytes(part.U), base+8*int64(lo)); err != nil {
			fail(lo, edgeArrayError(err, uint64(lo+got/8), m))
		} else if err := decodeArcs(part, uint64(lo), n); err != nil {
			fail(lo, err)
		}
		return true
	})
	p.Close()
	if firstErr != nil {
		return EdgeSpan{}, firstErr
	}
	end := base + 8*int64(m)
	var extra [1]byte
	if got, err := src.f.ReadAt(extra[:], end); got > 0 {
		return EdgeSpan{}, fmt.Errorf("graph: trailing data after %d binary edges", m)
	} else if err != io.EOF {
		return EdgeSpan{}, edgeArrayError(err, m, m)
	}
	if _, err := src.f.Seek(end, io.SeekStart); err != nil {
		return EdgeSpan{}, fmt.Errorf("graph: binary edge array: %w", err)
	}
	return span, nil
}

// readUnsizedEdges reads records in fixed chunks until the input ends
// (or overruns the header's m), then allocates the columns once,
// copies the chunks into U and turns them into arcs. Memory follows
// the bytes that actually arrived, never the header alone.
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
	span := EdgeSpan{U: wire.Column(int(2 * m)), V: wire.Column(int(2 * m))}
	dst := wire.Bytes(span.U)
	for _, c := range chunks {
		dst = dst[copy(dst, c):]
	}
	if err := decodeArcs(span, 0, n); err != nil {
		return EdgeSpan{}, err
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

// decodeArcs turns span, whose U column holds the raw records of edges
// first, first+1, … as read from the file, into arcs: it puts U in
// host byte order, writes the mirror column V and checks every
// endpoint against n. Only a span holding a bad endpoint is scanned a
// second time, to name its first bad edge.
func decodeArcs(span EdgeSpan, first, n uint64) error {
	wire.FromLE(span.U)
	if uint64(wire.Mirror(span.U, span.V)) < n {
		return nil
	}
	for i := range span.Len() {
		u, v := uint32(span.U[2*i]), uint32(span.U[2*i+1])
		if uint64(u) >= n || uint64(v) >= n {
			return fmt.Errorf("graph: edge %d = {%d,%d} out of range [0,%d)", first+uint64(i), u, v, n)
		}
	}
	return nil
}

// ReadAuto reads a graph in either supported format, sniffing the
// binary magic: files starting with it go to ReadBinary, everything
// else to the parallel text loader (ReadEdgeListParallel with default
// workers). This is what cmd/ccfind and cmd/ccbench use, so both
// commands accept both formats transparently. A regular file's size
// is taken before the reader is buffered, so a binary file's columns
// are allocated once, up front, and filled by parallel reads of the
// file (see ReadBinarySpan).
func ReadAuto(r io.Reader) (*Graph, error) {
	return readAuto(r, sourceOf(r))
}

// readAuto is ReadAuto given what src knows about r.
func readAuto(r io.Reader, src binSource) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head, err := br.Peek(len(binMagic))
	if err == nil && string(head) == binMagic {
		return readBinary(br, src)
	}
	if err != nil && err != io.EOF {
		return nil, err
	}
	// Shorter-than-magic inputs fall through: the text parser owns the
	// error message for them (e.g. "graph: empty input").
	return ReadEdgeListParallel(br, 0)
}
