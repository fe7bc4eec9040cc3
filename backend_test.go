package pramcc

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/graph"
	"repro/internal/baseline"
	"repro/internal/check"
	"repro/internal/forest"
)

// generatorZoo covers every generator family the graph package offers,
// so backend equivalence is asserted on paths, trees, grids, tori,
// hypercubes, cliques, random graphs, power-law graphs, and the
// composite workloads.
func generatorZoo() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"path":         graph.Path(257),
		"cycle":        graph.Cycle(200),
		"star":         graph.Star(150),
		"grid2d":       graph.Grid2D(20, 30),
		"torus2d":      graph.Torus2D(15, 17),
		"binary-tree":  graph.CompleteBinaryTree(511),
		"random-tree":  graph.RandomTree(400, 5),
		"caterpillar":  graph.Caterpillar(60, 4),
		"gnm":          graph.Gnm(3000, 9000, 7),
		"gnm-sparse":   graph.Gnm(2000, 900, 8),
		"circulant":    graph.Circulant(120, 3),
		"clique":       graph.Clique(40),
		"clique-beads": graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 32, Size: 12, IntraDeg: 8, Bridges: 2, Seed: 9}),
		"hypercube":    graph.Hypercube(8),
		"barbell":      graph.Barbell(25, 10),
		"rmat":         graph.RMAT(2048, 8000, 10),
		"chung-lu":     graph.ChungLu(2000, 6000, 2.5, 11),
		"lollipop":     graph.LollipopPath(30, 100),
		"disjoint": graph.DisjointUnion(
			graph.Path(100), graph.Clique(20), graph.Gnm(500, 1500, 12)),
		"isolated": graph.WithIsolated(graph.Grid2D(10, 10), 17),
		"permuted": graph.Permuted(graph.CliqueBeads(graph.CliqueBeadsSpec{
			Beads: 16, Size: 10, IntraDeg: 6, Bridges: 1, Seed: 13}), 14),
	}
}

// TestBackendEquivalenceAcrossGenerators: the native and incremental
// engines must induce exactly the partition of VanillaComponents and
// of the sequential union-find oracle on every generator family, and
// must agree with each other elementwise (both canonicalize labels to
// component minima).
func TestBackendEquivalenceAcrossGenerators(t *testing.T) {
	for name, g := range generatorZoo() {
		t.Run(name, func(t *testing.T) {
			nat, err := Components(g, WithBackend(BackendNative))
			if err != nil {
				t.Fatal(err)
			}
			inc, err := Components(g, WithBackend(BackendIncremental))
			if err != nil {
				t.Fatal(err)
			}
			van, err := VanillaComponents(g, WithSeed(3))
			if err != nil {
				t.Fatal(err)
			}
			if err := check.SamePartition(nat.Labels, van.Labels); err != nil {
				t.Fatalf("native vs vanilla: %v", err)
			}
			if err := check.SamePartition(nat.Labels, baseline.Components(g)); err != nil {
				t.Fatalf("native vs union-find: %v", err)
			}
			if err := check.SamePartition(inc.Labels, van.Labels); err != nil {
				t.Fatalf("incremental vs vanilla: %v", err)
			}
			for v := range nat.Labels {
				if inc.Labels[v] != nat.Labels[v] {
					t.Fatalf("incremental label[%d] = %d, native %d", v, inc.Labels[v], nat.Labels[v])
				}
			}
			if nat.NumComponents != van.NumComponents || inc.NumComponents != van.NumComponents {
				t.Fatalf("component counts differ: native %d, incremental %d, vanilla %d",
					nat.NumComponents, inc.NumComponents, van.NumComponents)
			}
		})
	}
}

// TestBackendEquivalenceSimulated: the three Components backends on
// the same graphs — the ISSUE-2 acceptance triangle, including the
// (slow) simulator on a reduced zoo.
func TestBackendEquivalenceSimulated(t *testing.T) {
	names := []string{"path", "grid2d", "gnm", "clique-beads", "disjoint", "isolated"}
	zoo := generatorZoo()
	for _, name := range names {
		g := zoo[name]
		t.Run(name, func(t *testing.T) {
			sim, err := Components(g, WithSeed(5))
			if err != nil {
				t.Fatal(err)
			}
			for _, bk := range []Backend{BackendNative, BackendIncremental} {
				got, err := Components(g, WithBackend(bk))
				if err != nil {
					t.Fatal(err)
				}
				if err := check.SamePartition(got.Labels, sim.Labels); err != nil {
					t.Fatalf("%v vs simulated: %v", bk, err)
				}
			}
		})
	}
}

// TestComponentsBackendDispatch: the default backend is the simulator
// (with model costs populated); the native backend reports itself and
// leaves the model-only fields zero.
func TestComponentsBackendDispatch(t *testing.T) {
	g := graph.Gnm(2000, 8000, 5)
	sim, err := Components(g, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if sim.Stats.Backend != BackendSimulated {
		t.Fatalf("default backend = %v, want simulated", sim.Stats.Backend)
	}
	if sim.Stats.PRAMSteps == 0 || sim.Stats.Work == 0 {
		t.Fatal("simulated run left model costs unpopulated")
	}
	nat, err := Components(g, WithBackend(BackendNative))
	if err != nil {
		t.Fatal(err)
	}
	if nat.Stats.Backend != BackendNative {
		t.Fatalf("backend = %v, want native", nat.Stats.Backend)
	}
	if nat.Stats.PRAMSteps != 0 || nat.Stats.Work != 0 || nat.Stats.MaxProcessors != 0 ||
		nat.Stats.PeakSpace != 0 || nat.Stats.CumBlockWords != 0 {
		t.Fatalf("native run populated model-only fields: %+v", nat.Stats)
	}
	if nat.Stats.Rounds == 0 || nat.Stats.Workers == 0 || nat.Stats.Wall == 0 {
		t.Fatalf("native run left real quantities unpopulated: %+v", nat.Stats)
	}
	if err := check.SamePartition(sim.Labels, nat.Labels); err != nil {
		t.Fatal(err)
	}
	inc, err := Components(g, WithBackend(BackendIncremental))
	if err != nil {
		t.Fatal(err)
	}
	if inc.Stats.Backend != BackendIncremental {
		t.Fatalf("backend = %v, want incremental", inc.Stats.Backend)
	}
	if inc.Stats.PRAMSteps != 0 || inc.Stats.Work != 0 || inc.Stats.MaxProcessors != 0 ||
		inc.Stats.PeakSpace != 0 || inc.Stats.CumBlockWords != 0 {
		t.Fatalf("incremental run populated model-only fields: %+v", inc.Stats)
	}
	if inc.Stats.Rounds != 1 {
		t.Fatalf("one-shot incremental run reports %d batches, want 1", inc.Stats.Rounds)
	}
	if inc.Stats.Workers == 0 || inc.Stats.Wall == 0 {
		t.Fatalf("incremental run left real quantities unpopulated: %+v", inc.Stats)
	}
	if err := check.SamePartition(sim.Labels, inc.Labels); err != nil {
		t.Fatal(err)
	}
}

func TestParseBackend(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Backend
	}{{"simulated", BackendSimulated}, {"sim", BackendSimulated}, {"", BackendSimulated},
		{"native", BackendNative}, {"incremental", BackendIncremental}, {"inc", BackendIncremental},
		// Case-insensitive, whitespace-tolerant (ISSUE-4 satellite).
		{"Native", BackendNative}, {"SIM", BackendSimulated}, {"  InCremental ", BackendIncremental}} {
		got, err := ParseBackend(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseBackend(%q) = %v, %v", tc.in, got, err)
		}
	}
	err := func() error { _, err := ParseBackend("gpu"); return err }()
	if err == nil {
		t.Fatal("ParseBackend accepted nonsense")
	}
	// The registry-driven error names what is actually registered.
	for _, name := range BackendNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("ParseBackend error %q does not list backend %q", err, name)
		}
	}
	if BackendNative.String() != "native" || BackendSimulated.String() != "simulated" ||
		BackendIncremental.String() != "incremental" {
		t.Fatal("Backend.String mismatch")
	}
}

// TestBackendTextMarshal: Backend round-trips through the
// encoding.TextMarshaler/TextUnmarshaler pair, which is what makes it
// usable with flag.TextVar and in JSON bench output.
func TestBackendTextMarshal(t *testing.T) {
	if len(Backends()) != len(BackendNames()) || len(Backends()) == 0 {
		t.Fatalf("registry enumeration inconsistent: %v vs %v", Backends(), BackendNames())
	}
	for i, bk := range Backends() {
		text, err := bk.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		if string(text) != BackendNames()[i] || string(text) != bk.String() {
			t.Fatalf("MarshalText(%v) = %q, want %q", bk, text, BackendNames()[i])
		}
		var back Backend
		if err := back.UnmarshalText(text); err != nil || back != bk {
			t.Fatalf("UnmarshalText(%q) = %v, %v", text, back, err)
		}
		var js Backend
		if err := json.Unmarshal([]byte(`"`+strings.ToUpper(string(text))+`"`), &js); err != nil || js != bk {
			t.Fatalf("json round-trip of %q: %v, %v", text, js, err)
		}
	}
	if _, err := Backend(42).MarshalText(); err == nil {
		t.Fatal("MarshalText accepted an unregistered backend")
	}
	var b Backend
	if err := b.UnmarshalText([]byte("quantum")); err == nil {
		t.Fatal("UnmarshalText accepted nonsense")
	}
}

// TestBackendEquivalenceGrainSweep: the partition must not depend on
// the scheduler claim grain. Degenerate (1), prime (7), legacy (4096),
// and adaptive (0) grains on both engines, against the sequential
// union-find oracle; Stats must echo the grain that ran.
func TestBackendEquivalenceGrainSweep(t *testing.T) {
	names := []string{"path", "binary-tree", "gnm", "clique-beads", "isolated"}
	zoo := generatorZoo()
	for _, name := range names {
		g := zoo[name]
		oracle := baseline.Components(g)
		for _, grain := range []int{1, 7, 4096, 0} {
			t.Run(fmt.Sprintf("%s/grain=%d", name, grain), func(t *testing.T) {
				for _, bk := range []Backend{BackendNative, BackendIncremental} {
					res, err := Components(g, WithBackend(bk), WithGrain(grain))
					if err != nil {
						t.Fatal(err)
					}
					if res.Stats.Grain != grain {
						t.Fatalf("%v Stats.Grain = %d, want %d", bk, res.Stats.Grain, grain)
					}
					if err := check.SamePartition(res.Labels, oracle); err != nil {
						t.Fatalf("%v grain=%d vs union-find: %v", bk, grain, err)
					}
				}
			})
		}
	}
}

// TestEngineOptionMatrixEquivalence runs both engines through their
// internal options at the degenerate grain 1 (one item per claim, the
// most concurrent chunk claims a sweep can issue) and at the adaptive
// grain. Every cell must induce the oracle partition; under -race this
// doubles as the scheduler stress test. The subtest labels keep the
// noaff= and nopack= fields of the scheduler and root-link switches
// this matrix once crossed, so the ids of the cells that remain stay
// stable.
func TestEngineOptionMatrixEquivalence(t *testing.T) {
	zoo := generatorZoo()
	for _, name := range []string{"gnm", "clique-beads", "binary-tree"} {
		g := zoo[name]
		oracle := baseline.Components(g)
		for _, grain := range []int{1, 0} {
			t.Run(fmt.Sprintf("native/%s/grain=%d,noaff=false,nopack=false", name, grain),
				func(t *testing.T) {
					eng := forest.New(0, forest.Options{Grain: grain})
					defer eng.Close()
					labels := make([]int32, g.N)
					if _, err := eng.Run(context.Background(), g, labels); err != nil {
						t.Fatal(err)
					}
					if err := check.SamePartition(labels, oracle); err != nil {
						t.Fatal(err)
					}
				})
			t.Run(fmt.Sprintf("incremental/%s/grain=%d,noaff=false", name, grain),
				func(t *testing.T) {
					eng := forest.New(g.N, forest.Options{Grain: grain})
					defer eng.Close()
					for _, span := range g.SpanBatches(3) {
						if _, err := eng.AddSpan(span); err != nil {
							t.Fatal(err)
						}
					}
					if err := check.SamePartition(eng.Snapshot().Labels, oracle); err != nil {
						t.Fatal(err)
					}
				})
		}
	}
}

// TestNativeConvergesUnderConcurrentSweeps exercises the native engine
// repeatedly on the same long-lived instance with a tiny grain, so the
// sharded scheduler issues many concurrent chunk claims per sweep;
// meant to run under -race.
func TestNativeConvergesUnderConcurrentSweeps(t *testing.T) {
	g := graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 24, Size: 10, IntraDeg: 6, Bridges: 2, Seed: 21})
	oracle := baseline.Components(g)
	eng := forest.New(0, forest.Options{Workers: 4, Grain: 1})
	defer eng.Close()
	labels := make([]int32, g.N)
	for i := 0; i < 8; i++ {
		if _, err := eng.Run(context.Background(), g, labels); err != nil {
			t.Fatal(err)
		}
		if err := check.SamePartition(labels, oracle); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}

// TestInvalidGraphsEveryBackend: every backend rejects a malformed
// graph with exactly Graph.Validate's error, no result and no panic —
// the forest engines find it in their validation sweep, the simulator
// in Validate itself — and the same Solver then solves a valid graph
// exactly. The graphs have m = 10·n, so a forest engine would take the
// sampled round over 256-edge blocks: edge 3 lies in block 0, which
// the sample links, and edge 300 in block 1, which only the finish
// sweep reads.
func TestInvalidGraphsEveryBackend(t *testing.T) {
	const n = 200
	corrupt := func(f func(g *graph.Graph)) *graph.Graph {
		g := graph.Gnm(n, 10*n, 51)
		f(g)
		return g
	}
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"out-of-range-in-sample", corrupt(func(g *graph.Graph) { g.U[7], g.V[6] = n, n })},
		{"negative-outside-sample", corrupt(func(g *graph.Graph) { g.U[600], g.V[601] = -1, -1 })},
		{"broken-mirror", corrupt(func(g *graph.Graph) { g.V[600] = (g.U[601] + 1) % n })},
		{"unequal-columns", corrupt(func(g *graph.Graph) { g.V = g.V[:len(g.V)-2] })},
		{"odd-columns", corrupt(func(g *graph.Graph) { g.U, g.V = g.U[:len(g.U)-1], g.V[:len(g.V)-1] })},
	}
	valid := graph.Gnm(n, 10*n, 52)
	oracle := baseline.Components(valid)
	ctx := context.Background()
	for _, bk := range Backends() {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%v/%s", bk, tc.name), func(t *testing.T) {
				want := tc.g.Validate()
				if want == nil {
					t.Fatal("the corrupted graph passes Validate")
				}
				s, err := NewSolver(WithBackend(bk), WithWorkers(2), WithSeed(1))
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				res, err := s.Solve(ctx, tc.g)
				if res != nil || err == nil || err.Error() != want.Error() {
					t.Fatalf("Solve = (%v, %v), want (nil, %q)", res, err, want)
				}
				res, err = s.Solve(ctx, valid)
				if err != nil {
					t.Fatal(err)
				}
				if err := check.SamePartition(res.Labels, oracle); err != nil {
					t.Fatalf("the valid solve after the rejected one: %v", err)
				}
			})
		}
	}
}

// TestForestBackendsCountComponents: the forest engines' component
// count, taken by the closing shortcut sweep rather than by a pass over
// the labels, equals the BFS count on every generator family and on
// the edge cases of an empty graph, a graph without edges and one of
// self-loops only, at every worker count.
func TestForestBackendsCountComponents(t *testing.T) {
	zoo := generatorZoo()
	zoo["gnm-dense"] = graph.Gnm(2000, 20000, 53)
	zoo["empty"] = graph.New(0)
	zoo["no-edges"] = graph.New(37)
	zoo["self-loops"] = graph.FromEdges(5, [][2]int{{0, 0}, {1, 1}, {3, 3}})
	ctx := context.Background()
	for name, g := range zoo {
		want := 0
		for v, l := range g.ComponentsBFS() {
			if int(l) == v {
				want++
			}
		}
		for _, bk := range []Backend{BackendNative, BackendIncremental} {
			for _, workers := range []int{1, 2, 4} {
				s, err := NewSolver(WithBackend(bk), WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Solve(ctx, g)
				if err != nil {
					t.Fatal(err)
				}
				if res.NumComponents != want {
					t.Fatalf("%s %v workers=%d: %d components, BFS %d",
						name, bk, workers, res.NumComponents, want)
				}
				s.Close()
			}
		}
	}
}

// FuzzBackendEquivalence: arbitrary multigraphs, worker counts, grain
// choices, and batch splits — native, one-shot incremental, batched
// incremental, and union-find must always agree.
func FuzzBackendEquivalence(f *testing.F) {
	f.Add(uint16(10), uint16(20), int64(1), uint8(0), uint8(1), uint8(0))
	f.Add(uint16(100), uint16(50), int64(2), uint8(1), uint8(3), uint8(1))
	f.Add(uint16(1), uint16(0), int64(3), uint8(4), uint8(0), uint8(2))
	f.Add(uint16(300), uint16(2000), int64(4), uint8(16), uint8(13), uint8(3))
	f.Fuzz(func(t *testing.T, nRaw, mRaw uint16, gseed int64, workersRaw, batchesRaw, grainRaw uint8) {
		n := int(nRaw%400) + 1
		m := int(mRaw % 1500)
		// 0 = adaptive sizing; 1 = degenerate; 7 = ragged; 4096 = legacy.
		grain := []int{0, 1, 7, 4096}[grainRaw%4]
		g := graph.Gnm(n, m, gseed)
		oracle := baseline.Components(g)
		res, err := Components(g, WithBackend(BackendNative), WithWorkers(int(workersRaw%17)), WithGrain(grain))
		if err != nil {
			t.Fatal(err)
		}
		if err := check.SamePartition(res.Labels, oracle); err != nil {
			t.Fatal(err)
		}
		one, err := Components(g, WithBackend(BackendIncremental), WithWorkers(int(workersRaw%17)), WithGrain(grain))
		if err != nil {
			t.Fatal(err)
		}
		for v := range res.Labels {
			if one.Labels[v] != res.Labels[v] {
				t.Fatalf("incremental label[%d] = %d, native %d", v, one.Labels[v], res.Labels[v])
			}
		}
		// Batched replay: the partition must not depend on the split.
		sv, err := NewService(g.N, WithBackend(BackendIncremental), WithWorkers(int(workersRaw%17)), WithGrain(grain))
		if err != nil {
			t.Fatal(err)
		}
		defer sv.Close()
		for _, span := range g.SpanBatches(int(batchesRaw%29) + 1) {
			if _, err := sv.Ingest(context.Background(), span.Pairs()); err != nil {
				t.Fatal(err)
			}
		}
		if err := check.SamePartition(sv.Labels(), oracle); err != nil {
			t.Fatalf("batched incremental: %v", err)
		}
	})
}
