package graph

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// FuzzReadEdgeList: the parser must never panic and must only accept
// inputs that round-trip consistently.
func FuzzReadEdgeList(f *testing.F) {
	f.Add([]byte("3 2\n0 1\n1 2\n"))
	f.Add([]byte("1 0\n"))
	f.Add([]byte("# comment\n2 1\n0 1\n"))
	f.Add([]byte("4 1\n3 3\n"))
	f.Add([]byte(""))
	f.Add([]byte("x y\n"))
	f.Add([]byte("2 1\n0 99\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadEdgeList(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatalf("write failed: %v", err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if g2.N != g.N || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed size: (%d,%d) vs (%d,%d)",
				g.N, g.NumEdges(), g2.N, g2.NumEdges())
		}
	})
}

// FuzzParallelLoaderEquivalence: the parallel loader accepts exactly
// the inputs the sequential loader accepts (and produces the identical
// graph), so ReadAuto's fast path can never change what a file means.
// Inputs ≥ 1 MiB are skipped: the sequential scanner has a 1 MiB line
// limit the parallel loader intentionally drops.
func FuzzParallelLoaderEquivalence(f *testing.F) {
	f.Add([]byte("3 2\n0 1\n1 2\n"), uint8(2))
	f.Add([]byte("# c\n2 1\n\n0 1"), uint8(5))
	f.Add([]byte("-5 3\n"), uint8(1))
	f.Add([]byte("2 1\n0\t1\r\n"), uint8(3))
	f.Add([]byte("1 0"), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, workers uint8) {
		if len(data) >= 1<<20 {
			t.Skip("line-limit divergence territory")
		}
		seq, seqErr := ReadEdgeList(bytes.NewReader(data))
		par, parErr := ParseEdgeList(data, int(workers%8))
		if (seqErr == nil) != (parErr == nil) {
			t.Fatalf("acceptance disagrees: sequential err=%v, parallel err=%v", seqErr, parErr)
		}
		if seqErr != nil {
			return
		}
		if par.N != seq.N || len(par.U) != len(seq.U) {
			t.Fatalf("graphs differ: (%d,%d arcs) vs (%d,%d arcs)", seq.N, len(seq.U), par.N, len(par.U))
		}
		for i := range seq.U {
			if par.U[i] != seq.U[i] || par.V[i] != seq.V[i] {
				t.Fatalf("arc %d differs: (%d,%d) vs (%d,%d)", i, seq.U[i], seq.V[i], par.U[i], par.V[i])
			}
		}
	})
}

// FuzzReadBinary: the binary parser must never panic, must only accept
// graphs that validate, and accepted inputs must round-trip exactly.
func FuzzReadBinary(f *testing.F) {
	var seed bytes.Buffer
	Gnm(20, 60, 1).WriteBinary(&seed)
	f.Add(seed.Bytes())
	f.Add([]byte("PCCG"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			t.Fatalf("write failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted input is not canonical: %d bytes in, %d bytes out", len(data), buf.Len())
		}
	})
}

// FuzzReadBinaryFile: reading a binary graph from a file — at offset 0
// and after a prefix, through ReadAuto's default plan and through a
// parallel read of two-edge chunks on three workers — accepts exactly
// what ReadBinary accepts from memory, with identical columns, or
// fails with the same error text: truncation, trailing data, the first
// out-of-range edge. A successful read leaves the file at its end.
func FuzzReadBinaryFile(f *testing.F) {
	var seed bytes.Buffer
	Gnm(20, 60, 1).WriteBinary(&seed)
	valid := seed.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                     // truncated
	f.Add(append(valid[:len(valid):len(valid)], 0)) // trailing byte
	bad := bytes.Clone(valid)
	bad[binHeaderSize+8*7] = 99 // edges 7 and 41 out of range
	bad[binHeaderSize+8*41+4] = 99
	f.Add(bad)
	f.Add([]byte("PCCG"))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		if !bytes.HasPrefix(data, []byte(binMagic)) {
			return // ReadAuto hands these to the text parser
		}
		want, wantErr := ReadBinary(bytes.NewReader(data))
		for _, prefix := range []string{"", "prefix bytes"} {
			file, err := os.CreateTemp(dir, "g-*.bin")
			if err != nil {
				t.Fatal(err)
			}
			defer os.Remove(file.Name())
			defer file.Close()
			if _, err := file.WriteString(prefix); err != nil {
				t.Fatal(err)
			}
			if _, err := file.Write(data); err != nil {
				t.Fatal(err)
			}
			reads := map[string]func() (*Graph, error){
				"ReadAuto": func() (*Graph, error) { return ReadAuto(file) },
				"parallel": func() (*Graph, error) {
					src := sourceOf(file)
					src.workers, src.chunk = 3, 2
					return readAuto(file, src)
				},
			}
			for name, read := range reads {
				if _, err := file.Seek(int64(len(prefix)), io.SeekStart); err != nil {
					t.Fatal(err)
				}
				got, err := read()
				if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
					t.Fatalf("%s with %d-byte prefix: error %v, want %v", name, len(prefix), err, wantErr)
				}
				if err != nil {
					continue
				}
				sameGraph(t, want, got)
				if off, _ := file.Seek(0, io.SeekCurrent); off != int64(len(prefix)+len(data)) {
					t.Fatalf("%s with %d-byte prefix: file left at %d, want its end %d", name, len(prefix), off, len(prefix)+len(data))
				}
			}
		}
	})
}

// FuzzBFSInvariants: distances satisfy the triangle property along
// edges on arbitrary small graphs.
func FuzzBFSInvariants(f *testing.F) {
	f.Add(uint16(10), uint16(20), int64(1))
	f.Add(uint16(2), uint16(0), int64(2))
	f.Fuzz(func(t *testing.T, nRaw, mRaw uint16, seed int64) {
		n := int(nRaw%200) + 1
		m := int(mRaw % 500)
		g := Gnm(n, m, seed)
		dist, ecc := g.BFS(0)
		if dist[0] != 0 {
			t.Fatal("dist to source must be 0")
		}
		maxSeen := 0
		for i := 0; i < len(g.U); i++ {
			du, dv := dist[g.U[i]], dist[g.V[i]]
			if (du < 0) != (dv < 0) {
				t.Fatal("edge between reachable and unreachable vertex")
			}
			if du >= 0 && dv >= 0 && du > dv+1 {
				t.Fatalf("triangle violation: %d > %d+1", du, dv)
			}
		}
		for _, d := range dist {
			if int(d) > maxSeen {
				maxSeen = int(d)
			}
		}
		if maxSeen != ecc {
			t.Fatalf("ecc %d != max dist %d", ecc, maxSeen)
		}
	})
}
