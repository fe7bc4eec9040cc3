package graph

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// generatorZoo returns one graph per generator family, the corpus the
// format round-trip tests run over.
func generatorZoo() map[string]*Graph {
	return map[string]*Graph{
		"path":      Path(37),
		"cycle":     Cycle(24),
		"star":      Star(19),
		"grid":      Grid2D(7, 9),
		"torus":     Torus2D(6, 8),
		"tree":      RandomTree(64, 3),
		"gnm":       Gnm(200, 800, 4),
		"circulant": Circulant(30, 3),
		"hypercube": Hypercube(6),
		"rmat":      RMAT(128, 512, 5),
		"chunglu":   ChungLu(150, 450, 2.5, 6),
		"beads":     CliqueBeads(CliqueBeadsSpec{Beads: 6, Size: 8, IntraDeg: 6, Bridges: 2, Seed: 7}),
		"empty":     New(5),
		"loops":     FromEdges(4, [][2]int{{0, 0}, {1, 2}, {2, 2}}),
		"multi":     FromEdges(3, [][2]int{{0, 1}, {0, 1}, {1, 2}}),
	}
}

// sameGraph asserts exact equality: vertex count, arc slices, order.
func sameGraph(t *testing.T, want, got *Graph) {
	t.Helper()
	if got.N != want.N {
		t.Fatalf("N = %d, want %d", got.N, want.N)
	}
	if !bytes.Equal(int32Bytes(got.U), int32Bytes(want.U)) || !bytes.Equal(int32Bytes(got.V), int32Bytes(want.V)) {
		t.Fatalf("arc slices differ: got %d arcs, want %d", len(got.U), len(want.U))
	}
}

func int32Bytes(s []int32) []byte {
	out := make([]byte, 4*len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint32(out[4*i:], uint32(v))
	}
	return out
}

func TestBinaryRoundTripAllGenerators(t *testing.T) {
	for name, g := range generatorZoo() {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := g.WriteBinary(&buf); err != nil {
				t.Fatal(err)
			}
			wantSize := binHeaderSize + 8*g.NumEdges()
			if buf.Len() != wantSize {
				t.Fatalf("binary size %d, want %d", buf.Len(), wantSize)
			}
			g2, err := ReadBinary(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if err := g2.Validate(); err != nil {
				t.Fatal(err)
			}
			sameGraph(t, g, g2)
		})
	}
}

func TestReadAutoDetectsBothFormats(t *testing.T) {
	g := Gnm(100, 400, 9)
	var txt, bin bytes.Buffer
	if err := g.WriteEdgeList(&txt); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	fromTxt, err := ReadAuto(&txt)
	if err != nil {
		t.Fatalf("text via ReadAuto: %v", err)
	}
	fromBin, err := ReadAuto(&bin)
	if err != nil {
		t.Fatalf("binary via ReadAuto: %v", err)
	}
	sameGraph(t, g, fromTxt)
	sameGraph(t, g, fromBin)
}

func TestReadAutoErrors(t *testing.T) {
	if _, err := ReadAuto(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadAuto(strings.NewReader("PC")); err == nil {
		t.Error("short non-graph input accepted")
	}
}

// binBytes serializes g and returns the raw bytes for corruption tests.
func binBytes(t *testing.T, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadBinaryCorruptInputs(t *testing.T) {
	good := binBytes(t, Gnm(50, 200, 1))
	mutate := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), good...)
		return f(b)
	}
	cases := map[string][]byte{
		"empty":            {},
		"short header":     good[:10],
		"bad magic":        mutate(func(b []byte) []byte { b[0] = 'X'; return b }),
		"bad version":      mutate(func(b []byte) []byte { b[4] = 99; return b }),
		"truncated edges":  good[:len(good)-5],
		"trailing garbage": append(append([]byte(nil), good...), 0xEE),
		"edge out of range": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[binHeaderSize:], 1<<30)
			return b
		}),
		"n over int32": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:16], 1<<40)
			return b
		}),
		"m over int32": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[16:24], 1<<40)
			return b
		}),
		// m claims more edges than the file holds: must fail on
		// truncation, not allocate 2^31 records.
		"huge m truncated": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[16:24], 1<<31-1)
			return b
		}),
	}
	// The edge-array checks keep their wording on every path.
	wording := map[string]string{
		"truncated edges":   "graph: binary edge array truncated after 199 of 200 edges",
		"trailing garbage":  "graph: trailing data after 200 binary edges",
		"edge out of range": "graph: edge 0 = {1073741824,",
	}
	dir := t.TempDir()
	for name, data := range cases {
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "-"))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// ReadAuto must reject them too (anything with the magic goes
		// down the binary path), and both readers must give the same
		// error when handed a regular file, whose size selects the
		// sized path.
		for _, read := range []struct {
			name string
			f    func(io.Reader) (*Graph, error)
		}{{"ReadBinary", ReadBinary}, {"ReadAuto", ReadAuto}} {
			_, memErr := read.f(bytes.NewReader(data))
			if memErr == nil {
				t.Errorf("%s via %s: accepted", name, read.name)
				continue
			}
			if !strings.HasPrefix(memErr.Error(), wording[name]) {
				t.Errorf("%s via %s: error %q, want prefix %q", name, read.name, memErr, wording[name])
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			_, fileErr := read.f(f)
			f.Close()
			if fileErr == nil || fileErr.Error() != memErr.Error() {
				t.Errorf("%s via %s on a file: error %v, want %v", name, read.name, fileErr, memErr)
			}
		}
	}
}

// TestReadAutoFileAllocatesColumnsOnce: loading a binary file through
// ReadAuto allocates the two arc columns (16 bytes per edge) and a
// bounded amount besides — no whole-file buffer, no column regrowth,
// no staging buffer. Beyond the columns a load allocated 66–112 KiB
// (ReadAuto's 64 KiB bufio.Reader and the worker pool) at GOMAXPROCS
// 1, 2 and 8, with and without -race; the budget leaves room for that
// but not for a 1 MiB chunk buffer.
func TestReadAutoFileAllocatesColumnsOnce(t *testing.T) {
	const m = 1 << 20
	path := filepath.Join(t.TempDir(), "g.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	want := Gnm(1<<17, m, 3)
	if err := want.WriteBinary(f); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	got, err := ReadAuto(f)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, want, got)
	budget := uint64(16*m + 256<<10)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > budget {
		t.Fatalf("ReadAuto allocated %d bytes for %d edges, budget %d", alloc, m, budget)
	}
}

func TestReadBinaryEmptyGraph(t *testing.T) {
	g2, err := ReadBinary(bytes.NewReader(binBytes(t, New(0))))
	if err != nil {
		t.Fatal(err)
	}
	if g2.N != 0 || g2.NumEdges() != 0 {
		t.Fatalf("n=%d m=%d, want empty", g2.N, g2.NumEdges())
	}
}

// TestReadFileEdgesFileChangedUnderIt: the parallel file read trusts
// the size taken before it started, so a file that grew or shrank
// since must still fail as a sequential read would — trailing data
// through the one-byte read past the last record, a short file as a
// truncation at its first missing edge.
func TestReadFileEdgesFileChangedUnderIt(t *testing.T) {
	data := binBytes(t, Gnm(50, 40, 8))
	cases := []struct {
		name    string
		file    []byte
		wantErr string
	}{
		{"grew", append(bytes.Clone(data), 0), "trailing data after 40 binary edges"},
		{"shrank", data[:len(data)-8*15-3], "truncated after 24 of 40 edges"},
	}
	for _, tc := range cases {
		path := filepath.Join(t.TempDir(), "g.bin")
		if err := os.WriteFile(path, tc.file, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		src := sourceOf(f)
		src.size = int64(len(data)) // the size the header vouches for
		src.workers, src.chunk = 3, 4
		_, _, err = readBinarySpan(f, src)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: error %v, want %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestReadFileEdgesFirstBadChunk: with out-of-range edges in two
// chunks, the parallel file read reports the earlier chunk's first bad
// edge, with the same text as the unsized path, whichever worker
// finishes first. Edge 9 is the second of its chunk and only its v is
// out of range, so the range check has to cover v and the chunk's
// rescan has to pass over a good edge to name it.
func TestReadFileEdgesFirstBadChunk(t *testing.T) {
	data := binBytes(t, Gnm(50, 40, 8))
	put := func(edge, end int, x uint32) {
		binary.LittleEndian.PutUint32(data[binHeaderSize+8*edge+4*end:], x)
	}
	put(9, 1, 50)       // v = n, chunk [8, 12)
	put(10, 1, 51)      // v > n, same chunk
	put(25, 0, 1<<31+5) // u ≥ 2³¹, chunk [24, 28)
	want := "graph: edge 9 = {"
	_, _, memErr := ReadBinarySpan(bytes.NewReader(data))
	if memErr == nil || !strings.HasPrefix(memErr.Error(), want) || !strings.HasSuffix(memErr.Error(), ",50} out of range [0,50)") {
		t.Fatalf("unsized path: error %v, want edge 9 with v = 50", memErr)
	}
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for range 20 {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		src := sourceOf(f)
		src.workers, src.chunk = 3, 4
		_, _, err = readBinarySpan(f, src)
		f.Close()
		if err == nil || err.Error() != memErr.Error() {
			t.Fatalf("file path: error %v, want %v", err, memErr)
		}
	}
}

// TestSizedAndUnsizedPathsAgree: for every generator family, the
// parallel file read (at the default split and at 3 workers on chunks
// of 4 edges) and the unsized read of the same bytes produce identical
// columns.
func TestSizedAndUnsizedPathsAgree(t *testing.T) {
	dir := t.TempDir()
	for name, g := range generatorZoo() {
		data := binBytes(t, g)
		_, want, err := ReadBinarySpan(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: unsized: %v", name, err)
		}
		path := filepath.Join(dir, name+".bin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, split := range [][2]int{{0, 0}, {3, 4}} {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			src := sourceOf(f)
			if split[0] > 0 {
				src.workers, src.chunk = split[0], split[1]
			}
			n, got, err := readBinarySpan(f, src)
			f.Close()
			if err != nil {
				t.Fatalf("%s split %v: %v", name, split, err)
			}
			if n != g.N {
				t.Fatalf("%s split %v: n = %d, want %d", name, split, n, g.N)
			}
			if !bytes.Equal(int32Bytes(got.U), int32Bytes(want.U)) || !bytes.Equal(int32Bytes(got.V), int32Bytes(want.V)) {
				t.Fatalf("%s split %v: file and unsized columns differ", name, split)
			}
		}
	}
}
