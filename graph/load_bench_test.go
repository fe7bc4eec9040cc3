package graph

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// The loader benchmarks share one serialized ~1M-edge workload; they
// are part of the benchstat baseline (scripts/bench_baseline.sh) so
// ingestion-throughput regressions show up the same way engine
// regressions do.
var loadBenchOnce struct {
	once sync.Once
	txt  []byte
	bin  []byte
}

func loadBenchData() ([]byte, []byte) {
	loadBenchOnce.once.Do(func() {
		g := Gnm(1<<17, 1<<20, 1)
		var txt, bin bytes.Buffer
		if err := g.WriteEdgeList(&txt); err != nil {
			panic(err)
		}
		if err := g.WriteBinary(&bin); err != nil {
			panic(err)
		}
		loadBenchOnce.txt = txt.Bytes()
		loadBenchOnce.bin = bin.Bytes()
	})
	return loadBenchOnce.txt, loadBenchOnce.bin
}

func BenchmarkLoadTextSequential(b *testing.B) {
	txt, _ := loadBenchData()
	b.SetBytes(int64(len(txt)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadEdgeList(bytes.NewReader(txt)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadTextParallel(b *testing.B) {
	txt, _ := loadBenchData()
	b.SetBytes(int64(len(txt)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseEdgeList(txt, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadBinary(b *testing.B) {
	_, bin := loadBenchData()
	b.SetBytes(int64(len(bin)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBinary(bytes.NewReader(bin)); err != nil {
			b.Fatal(err)
		}
	}
}

// fileBenchBin is the binary form of Gnm(5·10⁵, 5·10⁶), the input the
// perf harness's solve-native and stream-ingest workloads load.
var fileBenchBin = sync.OnceValue(func() []byte {
	var bin bytes.Buffer
	if err := Gnm(500_000, 5_000_000, 1).WriteBinary(&bin); err != nil {
		panic(err)
	}
	return bin.Bytes()
})

// BenchmarkLoadBinaryFile times ReadAuto on a regular file, the sized
// path: the columns are allocated up front and filled by parallel
// preads. BenchmarkLoadBinary reads from memory, the unsized path.
func BenchmarkLoadBinaryFile(b *testing.B) {
	bin := fileBenchBin()
	path := filepath.Join(b.TempDir(), "g.bin")
	if err := os.WriteFile(path, bin, 0o644); err != nil {
		b.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	b.SetBytes(int64(len(bin)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadAuto(f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteBinary(b *testing.B) {
	g := Gnm(1<<15, 1<<18, 1)
	var buf bytes.Buffer
	g.WriteBinary(&buf)
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := g.WriteBinary(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
