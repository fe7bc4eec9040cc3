package pramcc_test

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	pramcc "repro"
	"repro/graph"
)

// openBenchN is the vertex count of the durable-open benchmarks: one
// serve-durable tenant's worth.
const openBenchN = 200_000

// openBenchOpts are the per-tenant options serve-durable runs with.
func openBenchOpts() []pramcc.Option {
	return []pramcc.Option{pramcc.WithWorkers(1), pramcc.WithCheckpointEvery(64)}
}

// BenchmarkOpenFresh measures creating a durable service of 2·10⁵
// isolated vertices in an empty directory and closing it: the store's
// files, its root, and the engine's identity forest.
func BenchmarkOpenFresh(b *testing.B) {
	base := b.TempDir()
	opts := append(openBenchOpts(), pramcc.WithInitialVertices(openBenchN))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir := filepath.Join(base, strconv.Itoa(i))
		sv, err := pramcc.Open(dir, opts...)
		if err != nil {
			b.Fatal(err)
		}
		sv.Close()
		b.StopTimer()
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkOpenRecover measures the warm start of a store holding 63
// WAL batches of 1000 edges over 2·10⁵ vertices past its root — one
// batch short of the default checkpoint cadence, the longest replay a
// store reaches in steady state. Reopening leaves the store as it was
// (63 batches stay below the cadence), so every iteration replays the
// same log.
func BenchmarkOpenRecover(b *testing.B) {
	const batches, perBatch = 63, 1000
	dir := b.TempDir()
	sv, err := pramcc.Open(dir, append(openBenchOpts(), pramcc.WithInitialVertices(openBenchN))...)
	if err != nil {
		b.Fatal(err)
	}
	g := graph.Gnm(openBenchN, batches*perBatch, 7)
	for _, span := range g.SpanBatches(batches) {
		if _, err := sv.IngestSpan(context.Background(), span); err != nil {
			b.Fatal(err)
		}
	}
	want := sv.Labels()
	sv.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv, err := pramcc.Open(dir, openBenchOpts()...)
		if err != nil {
			b.Fatal(err)
		}
		stats, ok := sv.RecoveryStats()
		if !ok || stats.ReplayedBatches != batches {
			b.Fatalf("recovery %+v, want %d replayed batches", stats, batches)
		}
		if i == 0 {
			got := sv.Labels()
			for v := range want {
				if got[v] != want[v] {
					b.Fatalf("recovered label[%d] = %d, want %d", v, got[v], want[v])
				}
			}
		}
		sv.Close()
	}
}
