package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	pramcc "repro"
	"repro/graph"
	"repro/internal/baseline"
	"repro/internal/ccbase"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/obs"
	"repro/internal/pram"
	"repro/internal/spanning"
	"repro/internal/vanilla"
)

// Scale selects experiment sizes.
type Scale int

const (
	// Quick keeps every experiment under ~1s (CI and tests).
	Quick Scale = iota
	// Full is the EXPERIMENTS.md scale.
	Full
)

// grainOverride is the scheduler claim grain the wall-clock
// experiments (E11, E12, E14) pass to the native and incremental
// engines: 0, the default, selects adaptive sizing. ccbench -grain
// sets it once before any experiment runs; the affected tables report
// the active value in their notes so a snapshot is self-describing.
var grainOverride int

// SetGrain sets the claim-grain override consulted by the wall-clock
// experiments (see grainOverride).
func SetGrain(n int) { grainOverride = n }

// grainNote renders the active grain for experiment notes, in the
// same adaptive-or-fixed form ccfind prints in its run summary.
func grainNote() string {
	if grainOverride == 0 {
		return "grain = adaptive"
	}
	return fmt.Sprintf("grain = %d (-grain override)", grainOverride)
}

// Experiment is a runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(scale Scale) *Table
}

// All returns the experiment registry in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "rounds vs diameter", E1},
		{"E2", "rounds vs density (log log_{m/n} n term)", E2},
		{"E3", "rounds vs n at fixed density", E3},
		{"E4", "block space is O(m)", E4},
		{"E5", "maximum level vs the bound L", E5},
		{"E6", "per-budget level-up probability", E6},
		{"E7", "success probability across seeds", E7},
		{"E8", "spanning forest", E8},
		{"E9", "baseline comparison", E9},
		{"E10", "ablations", E10},
		{"E11", "simulated vs native wall clock", E11},
		{"E12", "incremental batch updates vs native recompute", E12},
		{"E13", "graph load throughput: text vs parallel text vs binary", E13},
		{"E14", "streaming ingest throughput: columnar spans vs boxed pairs", E14},
		{"E15", "observability overhead: sink off vs no-op sink vs JSON sink", E15},
		{"E16", "span coalescing under queued multi-tenant load: off vs on", E16},
	}
}

// IDs returns every registered experiment id in registry order — the
// enumeration CLI usage strings and id validation derive from, so
// registering an experiment can never leave a hard-coded "E1..En"
// range stale (the bug ccbench shipped with when E14 landed would
// have been the third such).
func IDs() []string {
	all := All()
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.ID
	}
	return out
}

// RunAll executes every experiment and renders it to w.
func RunAll(w io.Writer, scale Scale) {
	for _, e := range All() {
		e.Run(scale).Fprint(w)
	}
}

// beads returns the CliqueBeads workload with m/n ≈ 10 (dense enough
// to skip PREPARE so EXPAND-MAXLINK rounds are measured directly).
func beads(numBeads int, seed int64) *graph.Graph {
	return graph.CliqueBeads(graph.CliqueBeadsSpec{
		Beads: numBeads, Size: 24, IntraDeg: 20, Bridges: 2, Seed: seed,
	})
}

// sumExpandRounds totals the EXPAND inner rounds over Theorem-1
// phases — the quantity that is O(log d · log log_{m/n} n).
func sumExpandRounds(tr []ccbase.PhaseTrace) int {
	s := 0
	for _, t := range tr {
		s += t.ExpandRounds
	}
	return s
}

// E1: rounds vs diameter. Theorem 3 rounds should grow like log d,
// Theorem 1 like log d · log log, Vanilla/SV like log n (flat in d for
// fixed n per bead count — n grows with d here, so they grow too, but
// like log n = log d + const), and label propagation like d itself.
func E1(scale Scale) *Table {
	t := &Table{
		ID:    "E1",
		Title: "rounds vs diameter (CliqueBeads, m/n≈10)",
		Claim: "Thm 3: O(log d + log log_{m/n} n) rounds; Thm 1: O(log d·log log); label propagation: Θ(d)",
		Header: []string{"d(est)", "n", "m/n", "T3 rounds", "T1 exp-rounds", "T1 phases",
			"vanilla", "SV", "labelprop"},
	}
	counts := []int{2, 8, 32, 128, 512}
	if scale == Full {
		counts = []int{2, 8, 32, 128, 512, 2048}
	}
	for _, nb := range counts {
		g := beads(nb, int64(nb))
		d := 2 * nb // beads diameter estimate; exact BFS is too slow at Full scale
		if nb <= 64 {
			d = g.DiameterEstimate()
		}
		c := core.Run(pram.New(), g, core.DefaultParams(11))
		b := ccbase.Run(pram.New(), g, ccbase.DefaultParams(11))
		v := vanilla.Run(pram.New(), g, 11, 0)
		sv := baseline.ShiloachVishkin(pram.New(), g)
		lp := baseline.LabelPropagation(pram.New(), g)
		t.Add(d, g.N, float64(g.NumEdges())/float64(g.N),
			c.Rounds, sumExpandRounds(b.Trace), b.Phases, v.Phases, sv.Rounds, lp.Rounds)
	}
	t.Notes = append(t.Notes,
		"T3 rounds = EXPAND-MAXLINK rounds (PREPARE skipped at this density)",
		"T1 exp-rounds = Σ over phases of EXPAND distance-doubling rounds")
	return t
}

// E2: density sweep at fixed n and small diameter: the
// log log_{m/n} n term shrinks as density grows.
func E2(scale Scale) *Table {
	t := &Table{
		ID:    "E2",
		Title: "rounds vs density m/n (Gnm, fixed n)",
		Claim: "denser graphs finish in fewer rounds: the log log_{m/n} n term",
		Header: []string{"n", "m/n", "T3 prep", "T3 rounds", "T3 maxlvl",
			"T1 phases", "T1 exp-rounds"},
	}
	n := 20000
	if scale == Full {
		n = 100000
	}
	for _, dens := range []int{2, 4, 8, 32, 128} {
		g := graph.Gnm(n, n*dens, int64(dens))
		c := core.Run(pram.New(), g, core.DefaultParams(13))
		b := ccbase.Run(pram.New(), g, ccbase.DefaultParams(13))
		t.Add(n, dens, c.Prep, c.Rounds, c.MaxLevel, b.Phases, sumExpandRounds(b.Trace))
	}
	return t
}

// E3: n sweep at fixed density: Theorem 1/3 grow like log log n while
// Vanilla grows like log n.
func E3(scale Scale) *Table {
	t := &Table{
		ID:    "E3",
		Title: "rounds vs n (Gnm, m/n = 4)",
		Claim: "T1/T3 rounds grow like log log n; Vanilla like log n",
		Header: []string{"n", "T3 prep+rounds", "T1 phases", "T1 exp-rounds",
			"vanilla phases", "SV rounds"},
	}
	sizes := []int{1000, 10000, 100000}
	if scale == Full {
		sizes = []int{1000, 10000, 100000, 1000000}
	}
	for _, n := range sizes {
		g := graph.Gnm(n, 4*n, int64(n))
		c := core.Run(pram.New(), g, core.DefaultParams(17))
		b := ccbase.Run(pram.New(), g, ccbase.DefaultParams(17))
		v := vanilla.Run(pram.New(), g, 17, 0)
		sv := baseline.ShiloachVishkin(pram.New(), g)
		t.Add(n, fmt.Sprintf("%d+%d", c.Prep, c.Rounds), b.Phases,
			sumExpandRounds(b.Trace), v.Phases, sv.Rounds)
	}
	return t
}

// E4: Lemma 3.10/D.13 — cumulative block space stays O(m).
func E4(scale Scale) *Table {
	t := &Table{
		ID:    "E4",
		Title: "block space vs m (Theorem 3)",
		Claim: "Σ block allocations over all rounds = O(m) (Lemma 3.10)",
		Header: []string{"workload", "n", "m", "cum block words", "cum/m",
			"peak round words", "added edges"},
	}
	type wl struct {
		name string
		g    *graph.Graph
	}
	var wls []wl
	if scale == Full {
		wls = []wl{
			{"gnm-1e5x8", graph.Gnm(100000, 800000, 1)},
			{"gnm-3e5x8", graph.Gnm(300000, 2400000, 2)},
			{"beads-512", beads(512, 3)},
			{"beads-2048", beads(2048, 4)},
		}
	} else {
		wls = []wl{
			{"gnm-2e4x8", graph.Gnm(20000, 160000, 1)},
			{"beads-128", beads(128, 3)},
		}
	}
	for _, w := range wls {
		c := core.Run(pram.New(), w.g, core.DefaultParams(23))
		mm := w.g.NumEdges()
		t.Add(w.name, w.g.N, mm, c.CumBlockWords,
			float64(c.CumBlockWords)/float64(mm), c.PeakBlockWords, c.AddedEdges)
	}
	return t
}

// E5: Lemma 3.19/D.23 — the maximum level stays below
// L = O(max{2, log log_{m/n} n}).
func E5(scale Scale) *Table {
	t := &Table{
		ID:     "E5",
		Title:  "maximum level vs the bound L",
		Claim:  "levels never exceed L = O(max{2, log log_{m/n} n}) (Lemma 3.19)",
		Header: []string{"workload", "n", "m/n", "max level", "L(budget cap)"},
	}
	type wl struct {
		name string
		g    *graph.Graph
	}
	n := 20000
	if scale == Full {
		n = 200000
	}
	wls := []wl{
		{"gnm-x2", graph.Gnm(n, 2*n, 5)},
		{"gnm-x8", graph.Gnm(n, 8*n, 6)},
		{"gnm-x64", graph.Gnm(n, 64*n, 7)},
		{"beads", beads(n/24, 8)},
	}
	for _, w := range wls {
		p := core.DefaultParams(29)
		c := core.Run(pram.New(), w.g, p)
		// L = number of levels until the budget cap is reached:
		// smallest ℓ with b1^(γ^(ℓ-1)) ≥ cap.
		L := levelsToCap(w.g, p)
		t.Add(w.name, w.g.N, float64(w.g.NumEdges())/float64(w.g.N), c.MaxLevel, L)
	}
	return t
}

func levelsToCap(g *graph.Graph, p core.Params) int {
	// Mirrors newBudgetTable's growth to find the saturation level,
	// the scaled stand-in for L = O(max{2, log log_{m/n} n}).
	b := float64(g.NumEdges()) / float64(g.N)
	if b < p.MinBudget {
		b = p.MinBudget
	}
	capV := p.BudgetCapFactor * float64(g.N+2) * p.BudgetCapFactor * float64(g.N+2)
	l := 1
	for b < capV && l < 64 {
		nb := powMath(b, p.Growth)
		if nb <= b+1 {
			nb = b + 1
		}
		b = nb
		l++
	}
	return l
}

// E6: Lemma 3.9/D.12 — the probability that a budget-b root raises its
// budget in one round decays with b (double-exponential progress).
func E6(scale Scale) *Table {
	t := &Table{
		ID:     "E6",
		Title:  "per-level level-up probability (Theorem 3)",
		Claim:  "P[budget b → b^γ in one round] ≤ n^{-5} + b^{-Ω(1)} (Lemma 3.9)",
		Header: []string{"level", "budget b", "root-rounds", "level-ups", "empirical P"},
	}
	n := 20000
	if scale == Full {
		n = 200000
	}
	rootRounds := map[int32]int{}
	ups := map[int32]int{}
	for seed := uint64(1); seed <= 5; seed++ {
		g := graph.Gnm(n, 16*n, int64(seed)) // m/n = 16 skips PREPARE
		p := core.DefaultParams(seed)
		c := core.Run(pram.New(), g, p)
		for _, tr := range c.Trace {
			for lvl, cnt := range tr.LevelHist {
				rootRounds[lvl] += cnt
			}
			for lvl, cnt := range tr.LevelUpsByLevel {
				ups[lvl] += cnt
			}
		}
	}
	var levels []int32
	for l := range rootRounds {
		levels = append(levels, l)
	}
	sort.Slice(levels, func(i, j int) bool { return levels[i] < levels[j] })
	bt := budgetsForDefault(n, 16)
	for _, l := range levels {
		p := 0.0
		if rootRounds[l] > 0 {
			p = float64(ups[l]) / float64(rootRounds[l])
		}
		t.Add(l, bt(l), rootRounds[l], ups[l], p)
	}
	t.Notes = append(t.Notes, "aggregated over 5 seeds; Gnm with m/n = 16")
	return t
}

// E7: success probability — every algorithm correct across seeds;
// bad-probability events (Failed flags) counted.
func E7(scale Scale) *Table {
	t := &Table{
		ID:     "E7",
		Title:  "success probability across seeds",
		Claim:  "algorithms succeed with probability 1 − 1/poly (good probability)",
		Header: []string{"algorithm", "runs", "correct", "failed-flag"},
	}
	seeds := 10
	if scale == Full {
		seeds = 50
	}
	gs := []*graph.Graph{
		graph.Gnm(5000, 20000, 1),
		beads(64, 2),
		graph.DisjointUnion(graph.Path(700), graph.Gnm(3000, 9000, 3), graph.Clique(40)),
		graph.Permuted(graph.Grid2D(50, 60), 4),
	}
	type res struct{ runs, correct, failed int }
	agg := map[string]*res{}
	rec := func(name string, ok, failed bool) {
		r := agg[name]
		if r == nil {
			r = &res{}
			agg[name] = r
		}
		r.runs++
		if ok {
			r.correct++
		}
		if failed {
			r.failed++
		}
	}
	for _, g := range gs {
		for s := 0; s < seeds; s++ {
			seed := uint64(s + 1)
			c := core.Run(pram.New(), g, core.DefaultParams(seed))
			rec("Thm3 fast CC", check.Components(g, c.Labels) == nil, c.Failed)
			b := ccbase.Run(pram.New(), g, ccbase.DefaultParams(seed))
			rec("Thm1 loglog CC", check.Components(g, b.Labels) == nil, b.Failed)
			f := spanning.Run(pram.New(), g, spanning.DefaultParams(seed))
			okf := check.Components(g, f.Labels) == nil && check.Forest(g, f.ForestEdges) == nil
			rec("Thm2 spanning forest", okf, f.Failed)
			v := vanilla.Run(pram.New(), g, seed, 0)
			rec("Vanilla", check.Components(g, v.Labels) == nil, false)
		}
	}
	var names []string
	for n := range agg {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r := agg[n]
		t.Add(n, r.runs, r.correct, r.failed)
	}
	return t
}

// E8: Theorem 2 — spanning forest validity and round counts.
func E8(scale Scale) *Table {
	t := &Table{
		ID:    "E8",
		Title: "spanning forest (Theorem 2)",
		Claim: "same asymptotic rounds as Theorem 1; output is a spanning forest",
		Header: []string{"workload", "n", "phases", "Σexp-rounds", "forest edges",
			"expected", "valid"},
	}
	type wl struct {
		name string
		g    *graph.Graph
	}
	nb := 64
	gn := 20000
	if scale == Full {
		nb = 512
		gn = 100000
	}
	wls := []wl{
		{"beads", beads(nb, 5)},
		{"gnm-x4", graph.Gnm(gn, 4*gn, 6)},
		{"grid", graph.Grid2D(100, 100)},
		{"multi-comp", graph.DisjointUnion(graph.Path(500), graph.Gnm(5000, 20000, 7), graph.Star(300))},
	}
	for _, w := range wls {
		f := spanning.Run(pram.New(), w.g, spanning.DefaultParams(31))
		sum := 0
		for _, tr := range f.Trace {
			sum += tr.ExpandRounds
		}
		expected := w.g.N - w.g.NumComponents()
		valid := check.Forest(w.g, f.ForestEdges) == nil
		t.Add(w.name, w.g.N, f.Phases, sum, len(f.ForestEdges), expected, valid)
	}
	return t
}

// E9: baselines — Θ(d) label propagation vs O(log d) matrix squaring
// (with Θ(n³) work) vs the paper's algorithms.
func E9(scale Scale) *Table {
	t := &Table{
		ID:    "E9",
		Title: "baseline rounds and work",
		Claim: "label propagation is Θ(d); matrix squaring is O(log d) but work-infeasible (footnote 3)",
		Header: []string{"workload", "n", "d(est)", "T3 rounds", "SV", "AS", "LT-PA", "LT-EA",
			"leadctr", "labelprop", "matsq rounds", "matsq work"},
	}
	type wl struct {
		name string
		g    *graph.Graph
	}
	wls := []wl{
		{"path-512", graph.Path(512)},
		{"grid-24x24", graph.Grid2D(24, 24)},
		{"beads-48", graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 48, Size: 8, IntraDeg: 7, Bridges: 1, Seed: 9})},
		{"gnm-1024x4", graph.Gnm(1024, 4096, 10)},
	}
	for _, w := range wls {
		d := w.g.DiameterEstimate()
		c := core.Run(pram.New(), w.g, core.DefaultParams(37))
		sv := baseline.ShiloachVishkin(pram.New(), w.g)
		as := baseline.AwerbuchShiloach(pram.New(), w.g)
		pa := baseline.LiuTarjan(pram.New(), w.g, baseline.LTVariant{Name: "PA", Link: baseline.LinkParent, Alter: true})
		ea := baseline.LiuTarjanMinLink(pram.New(), w.g)
		lc := baseline.LeaderContraction(pram.New(), w.g)
		lp := baseline.LabelPropagation(pram.New(), w.g)
		ms := baseline.MatrixSquaring(pram.New(), w.g)
		msWork := int64(ms.Rounds) * int64(w.g.N) * int64(w.g.N) * int64(w.g.N) / 64
		t.Add(w.name, w.g.N, d, fmt.Sprintf("%d+%d", c.Prep, c.Rounds), sv.Rounds,
			as.Rounds, pa.Rounds, ea.Rounds, lc.Rounds, lp.Rounds, ms.Rounds, msWork)
	}
	t.Notes = append(t.Notes, "matsq work = rounds · n³/64 bitset word operations")
	return t
}

// E10: ablations of the design choices §1.2.2 calls out.
func E10(scale Scale) *Table {
	t := &Table{
		ID:    "E10",
		Title: "ablations (Theorem 3 design choices)",
		Claim: "MAXLINK needs 2 iterations; the random boost protects the space bound; budget growth trades rounds vs space",
		Header: []string{"variant", "rounds", "max level", "cum words/m", "failed",
			"correct"},
	}
	nb := 128
	if scale == Full {
		nb = 512
	}
	g := beads(nb, 41)
	mm := float64(g.NumEdges())
	run := func(name string, mod func(*core.Params)) {
		p := core.DefaultParams(43)
		mod(&p)
		c := core.Run(pram.New(), g, p)
		t.Add(name, c.Rounds, c.MaxLevel, float64(c.CumBlockWords)/mm, c.Failed,
			check.Components(g, c.Labels) == nil)
	}
	run("default (2×MAXLINK, boost, γ=1.15)", func(p *core.Params) {})
	run("MAXLINK ×1", func(p *core.Params) { p.MaxLinkIters = 1 })
	run("no boost (step 2 off)", func(p *core.Params) { p.DisableBoost = true })
	run("γ=1.1", func(p *core.Params) { p.Growth = 1.1 })
	run("γ=1.4", func(p *core.Params) { p.Growth = 1.4 })
	run("γ=2.0", func(p *core.Params) { p.Growth = 2.0 })

	// Theorem 1 mode comparison (§B.5).
	for _, mode := range []ccbase.Mode{ccbase.ModeArbitrary, ccbase.ModeCombining} {
		p := ccbase.DefaultParams(43)
		p.Mode = mode
		b := ccbase.Run(pram.New(), g, p)
		name := "T1 ARBITRARY (ñ rule)"
		if mode == ccbase.ModeCombining {
			name = "T1 COMBINING (exact n′)"
		}
		t.Add(name, b.Phases, "-", "-", b.Failed, check.Components(g, b.Labels) == nil)
	}
	return t
}

// E11: the execution backends. Not a claim of the paper — the
// engineering claim that keeps the repo honest: every registered
// backend must produce the exact partition of the sequential
// union-find oracle, with the native engine at a fraction of the
// simulator's wall clock. The backend list (and the table's columns)
// comes from the pramcc backend registry, not a hard-coded slice, so
// a newly registered backend shows up here — and in ccbench output —
// automatically. `ccbench -experiment E11 -format json >
// BENCH_<date>.json` is the tracked artifact.
func E11(scale Scale) *Table {
	names := pramcc.BackendNames()
	header := []string{"workload", "n", "m"}
	for _, name := range names {
		header = append(header, name+" ms")
	}
	header = append(header, "unionfind ms", "sim/native speedup", "same partition")
	t := &Table{
		ID:     "E11",
		Title:  "execution backends wall clock",
		Claim:  "every registered backend computes the union-find partition; BackendNative at a fraction of the simulator's wall clock",
		Header: header,
	}
	type wl struct {
		name string
		g    *graph.Graph
	}
	var wls []wl
	if scale == Full {
		wls = []wl{
			{"gnm-1e5x4", graph.Gnm(100000, 400000, 1)},
			{"gnm-3e5x8", graph.Gnm(300000, 2400000, 2)},
			{"beads-1024", beads(1024, 3)},
			{"rmat-2e5", graph.RMAT(1<<18, 1<<21, 4)},
		}
	} else {
		wls = []wl{
			{"gnm-2e4x4", graph.Gnm(20000, 80000, 1)},
			{"beads-128", beads(128, 3)},
			{"rmat-2e4", graph.RMAT(1<<14, 1<<17, 4)},
		}
	}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	for _, w := range wls {
		t0 := time.Now()
		uf := baseline.Components(w.g)
		ufD := time.Since(t0)
		row := []interface{}{w.name, w.g.N, w.g.NumEdges()}
		same := true
		var simD, natD time.Duration
		for _, bk := range pramcc.Backends() {
			res, err := pramcc.Components(w.g, pramcc.WithBackend(bk), pramcc.WithSeed(19), pramcc.WithGrain(grainOverride))
			if err != nil {
				row = append(row, "err")
				same = false
				continue
			}
			// Stats.Wall times the run itself (validation and label
			// counting excluded), the same quantity the old
			// hand-rolled sim/native columns measured.
			row = append(row, ms(res.Stats.Wall))
			if check.SamePartition(res.Labels, uf) != nil {
				same = false
			}
			switch bk {
			case pramcc.BackendSimulated:
				simD = res.Stats.Wall
			case pramcc.BackendNative:
				natD = res.Stats.Wall
			}
		}
		speedup := 0.0
		if natD > 0 {
			speedup = float64(simD) / float64(natD)
		}
		row = append(row, ms(ufD), speedup, same)
		t.Add(row...)
	}
	t.Notes = append(t.Notes,
		"columns enumerate the pramcc backend registry (simulated = Theorem-3 EXPAND-MAXLINK on the step-barrier PRAM simulator; native = one-round root-linking engine; incremental = union-find fed one batch)",
		"unionfind = sequential single-core anchor; workers = GOMAXPROCS on native and incremental, one thread on the simulator; "+grainNote()+"; wall clock is host-dependent, track trends not absolutes")
	return t
}

// E12: the streaming scenario. An append-heavy workload arrives in K
// batches; a consumer who wants fresh component answers after every
// batch can either recompute from scratch with the one-shot native
// engine (cost ≈ K × full multi-round run) or maintain the labeling
// with the incremental union-find engine (cost Θ(m) union work plus
// K snapshot flattens of Θ(n) each — old edges are never rescanned).
// The engineering claim: incremental total ingestion time is in the
// ballpark of ONE native recompute, and beats recompute-per-batch by
// roughly a factor of K. The final labels must equal the native
// labels exactly, not just up to relabeling — both engines
// canonicalize to component minima.
func E12(scale Scale) *Table {
	t := &Table{
		ID:    "E12",
		Title: "incremental batch updates vs native recompute",
		Claim: "maintaining components under K edge batches costs Θ(m + K·n) total (no rescan of old edges), vs ≈K full runs for recompute-per-batch",
		Header: []string{"workload", "n", "m", "K", "incr total ms", "incr worst-batch ms",
			"native 1-shot ms", "recompute ms", "speedup", "same labels"},
	}
	type wl struct {
		name string
		g    *graph.Graph
	}
	var wls []wl
	k := 10
	if scale == Full {
		k = 20
		wls = []wl{
			{"gnm-1e5x4", graph.Gnm(100000, 400000, 1)},
			{"gnm-3e5x8", graph.Gnm(300000, 2400000, 2)},
			{"beads-1024", beads(1024, 3)},
			{"rmat-2e5", graph.RMAT(1<<18, 1<<21, 4)},
			{"chunglu-1e5", graph.ChungLu(100000, 400000, 2.5, 5)},
		}
	} else {
		wls = []wl{
			{"gnm-2e4x4", graph.Gnm(20000, 80000, 1)},
			{"beads-128", beads(128, 3)},
			{"rmat-2e4", graph.RMAT(1<<14, 1<<17, 4)},
		}
	}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	for _, w := range wls {
		// The replay is columnar (zero-copy SpanBatches slices fed to
		// AddSpan); E14 measures the span-vs-pairs replay difference
		// itself.
		batches := w.g.SpanBatches(k)

		// Incremental: K AddSpan batches into the engine's live forest.
		eng := forest.New(w.g.N, forest.Options{Grain: grainOverride})
		var incrTotal, incrWorst time.Duration
		for _, b := range batches {
			t0 := time.Now()
			eng.AddSpan(b)
			d := time.Since(t0)
			incrTotal += d
			if d > incrWorst {
				incrWorst = d
			}
		}
		incrLabels := eng.Snapshot().Labels

		// Native one-shot on the full graph (the freshness floor a
		// non-streaming consumer pays once), and recompute-per-batch
		// (what it pays to stay fresh after every batch): a full run
		// on each growing prefix, on the same engine's pool.
		natLabels := make([]int32, w.g.N)
		t0 := time.Now()
		eng.Run(context.Background(), w.g, natLabels)
		oneShot := time.Since(t0)
		prefix := graph.New(w.g.N)
		prefixLabels := make([]int32, w.g.N)
		var recompute time.Duration
		for _, b := range batches {
			for i := 0; i < b.Len(); i++ {
				u, v := b.Edge(i)
				prefix.AddEdge(int(u), int(v))
			}
			t0 = time.Now()
			eng.Run(context.Background(), prefix, prefixLabels)
			recompute += time.Since(t0)
		}
		eng.Close()

		same := slices.Equal(incrLabels, natLabels)
		t.Add(w.name, w.g.N, w.g.NumEdges(), len(batches), ms(incrTotal), ms(incrWorst),
			ms(oneShot), ms(recompute), float64(recompute)/float64(incrTotal), same)
	}
	t.Notes = append(t.Notes,
		"incr = internal/forest's live lock-free union-find, one zero-copy AddSpan per batch (the engine behind Service.IngestSpan on BackendIncremental)",
		"recompute = a full native run after every batch, the non-streaming way to keep answers fresh",
		"speedup = recompute / incr total; same labels = exact elementwise equality (both label by component minimum); "+grainNote())
	return t
}

// E13: ingestion. Production-scale serving starts with loading the
// graph, and a single-threaded text scanner was the slowest stage of
// the whole pipeline — at 10M+ edges, loading dominated end-to-end
// wall clock over the native engine itself. The claim: the binary
// format (graph.ReadBinary) and the parallel zero-allocation text
// loader (graph.ReadEdgeListParallel) both load the identical graph
// ≥ 3× faster than the sequential text reference (graph.ReadEdgeList).
// Everything is measured over in-memory buffers so the table compares
// parsers, not disks.
func E13(scale Scale) *Table {
	t := e13Table("")
	type wl struct {
		name string
		g    *graph.Graph
	}
	var wls []wl
	if scale == Full {
		wls = []wl{
			{"gnm-1e6x10", graph.Gnm(1_000_000, 10_000_000, 1)},
			{"rmat-1e6", graph.RMAT(1<<20, 1<<22, 2)},
			{"beads-4096", beads(4096, 3)},
		}
	} else {
		wls = []wl{
			{"gnm-5e4x4", graph.Gnm(50_000, 200_000, 1)},
			{"rmat-2e4", graph.RMAT(1<<14, 1<<16, 2)},
		}
	}
	for _, w := range wls {
		e13Row(t, w.name, w.g)
	}
	return t
}

// E13File is E13 over a user-supplied graph file (either format,
// auto-detected) instead of the generated workloads: the path behind
// `ccbench -experiment E13 -graph FILE`. The file fixes the workload
// size, so there is no scale parameter.
func E13File(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := graph.ReadAuto(f)
	if err != nil {
		return nil, err
	}
	t := e13Table(path)
	e13Row(t, filepath.Base(path), g)
	return t, nil
}

func e13Table(source string) *Table {
	t := &Table{
		ID:    "E13",
		Title: "graph load throughput: text vs parallel text vs binary",
		Claim: "binary and parallel-text loading are ≥ 3× the sequential text loader, all three loading identical graphs",
		Header: []string{"workload", "n", "m", "text MB", "seq ms", "par ms", "par speedup",
			"bin MB", "bin ms", "bin speedup", "identical"},
	}
	t.Notes = append(t.Notes,
		"seq = graph.ReadEdgeList (line-at-a-time reference); par = graph.ReadEdgeListParallel (chunked zero-alloc scanner, GOMAXPROCS workers); bin = graph.ReadBinary",
		"parsed from in-memory buffers: parser throughput, not disk throughput",
		"identical = all three loaders produced elementwise-equal arc lists")
	if source != "" {
		t.Notes = append(t.Notes, "workload re-serialized from "+source)
	}
	return t
}

func e13Row(t *Table, name string, g *graph.Graph) {
	var txt, bin bytes.Buffer
	if err := g.WriteEdgeList(&txt); err != nil {
		panic(err) // bytes.Buffer cannot fail
	}
	if err := g.WriteBinary(&bin); err != nil {
		panic(err)
	}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	mb := func(n int) float64 { return float64(n) / (1 << 20) }

	t0 := time.Now()
	seq, err := graph.ReadEdgeList(bytes.NewReader(txt.Bytes()))
	seqD := time.Since(t0)
	if err != nil {
		panic(err) // loaders reject only malformed input, which we just wrote
	}
	t0 = time.Now()
	par, err := graph.ParseEdgeList(txt.Bytes(), 0)
	parD := time.Since(t0)
	if err != nil {
		panic(err)
	}
	t0 = time.Now()
	binG, err := graph.ReadBinary(bytes.NewReader(bin.Bytes()))
	binD := time.Since(t0)
	if err != nil {
		panic(err)
	}

	identical := sameArcs(g, seq) && sameArcs(g, par) && sameArcs(g, binG)
	t.Add(name, g.N, g.NumEdges(), mb(txt.Len()), ms(seqD), ms(parD),
		float64(seqD)/float64(parD), mb(bin.Len()), ms(binD),
		float64(seqD)/float64(binD), identical)
}

func sameArcs(a, b *graph.Graph) bool {
	return a.N == b.N && slices.Equal(a.U, b.U) && slices.Equal(a.V, b.V)
}

// E14: the columnar replay pipeline. The streaming path used to ship
// every batch as [][2]int — 4× the memory of the int32 SoA columns
// the Graph already stores, materialized fresh per replay — so the
// serving-path hot loop spent its time converting and copying rather
// than unioning. The claim: replaying a resident graph through the
// incremental engine via zero-copy spans (SpanBatches + AddSpan)
// sustains ≥ 1.5× the edges/sec of the boxed pair replay (SpanBatches
// + Pairs + graph.FromPairs + AddSpan — the conversion Service.Ingest performs
// at the API boundary), identical final labels, across batch sizes.
// Both sides are measured end-to-end as a consumer would run them:
// batch construction from the resident graph plus ingestion — exactly
// the layers the span representation de-copies; the union-find work
// in the middle is byte-for-byte the same.
func E14(scale Scale) *Table {
	t := &Table{
		ID:    "E14",
		Title: "streaming ingest throughput: columnar spans vs boxed pairs",
		Claim: "zero-copy span replay beats [][2]int replay on edges/sec in every cell — ≥ 1.5× where replay-layer data movement dominates (the dense full-scale workload at every K) — with identical labels; union/publish-bound cells (m/n ≈ 4) shrink toward 1×",
		Header: []string{"workload", "n", "m", "K", "pairs ms", "span ms",
			"pairs Medges/s", "span Medges/s", "speedup", "same labels"},
	}
	type wl struct {
		name string
		g    *graph.Graph
	}
	var wls []wl
	var ks []int
	if scale == Full {
		wls = []wl{
			{"gnm-1e6x10", graph.Gnm(1_000_000, 10_000_000, 1)},
			{"rmat-1e6", graph.RMAT(1<<20, 1<<22, 2)},
			{"chunglu-1e6", graph.ChungLu(1_000_000, 4_000_000, 2.5, 5)},
		}
		ks = []int{1, 16, 128}
	} else {
		wls = []wl{
			{"gnm-5e4x8", graph.Gnm(50_000, 400_000, 1)},
			{"rmat-2e4", graph.RMAT(1<<14, 1<<17, 2)},
		}
		ks = []int{1, 16}
	}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	medges := func(m int, d time.Duration) float64 {
		return float64(m) / d.Seconds() / 1e6
	}
	for _, w := range wls {
		for _, k := range ks {
			// Boxed replay: materialize each batch of the resident
			// graph as [][2]int, then convert it to a span and ingest
			// it — what Service.Ingest does with a [][2]int batch.
			eng := forest.New(w.g.N, forest.Options{Grain: grainOverride})
			t0 := time.Now()
			for _, b := range w.g.SpanBatches(k) {
				eng.AddSpan(graph.FromPairs(b.Pairs()))
			}
			pairsD := time.Since(t0)
			pairsLabels := eng.Snapshot().Labels
			eng.Close()

			// Columnar replay: zero-copy span slices of the same graph,
			// one AddSpan per batch.
			eng = forest.New(w.g.N, forest.Options{Grain: grainOverride})
			t0 = time.Now()
			for _, b := range w.g.SpanBatches(k) {
				eng.AddSpan(b)
			}
			spanD := time.Since(t0)
			same := slices.Equal(pairsLabels, eng.Snapshot().Labels)
			eng.Close()

			m := w.g.NumEdges()
			t.Add(w.name, w.g.N, m, k, ms(pairsD), ms(spanD),
				medges(m, pairsD), medges(m, spanD),
				float64(pairsD)/float64(spanD), same)
		}
	}
	t.Notes = append(t.Notes,
		"pairs = g.SpanBatches(K) + EdgeSpan.Pairs + graph.FromPairs + Engine.AddSpan: materializes each batch as [][2]int (16 bytes/edge) and converts it to a fresh span — the path Service.Ingest takes (it adds only a range check on the ints)",
		"span = g.SpanBatches(K) + Engine.AddSpan: zero-copy arc-column slices (8 bytes/edge, no materialization), columnar validation",
		"both sides time batch construction + ingestion on a fresh engine; the union-find and snapshot publication are identical",
		"workers = GOMAXPROCS; same labels = exact elementwise equality of the final snapshots; "+grainNote())
	return t
}

// noopSink is an attached-but-free event consumer: with it installed
// every emit site builds its envelope (the Measures map and Event
// struct) but nothing is encoded — isolating envelope-construction
// cost from JSON-encoding cost in E15.
type noopSink struct{}

func (noopSink) Emit(obs.Event) {}

// E15: the cost of observability. The instrumentation contract
// (OPERATIONS.md) is two-tier: counters/gauges are always-on single
// atomic adds, and the event envelope is built only when a sink is
// attached — gated on one atomic pointer load — so the no-sink
// configuration must be free (TestSpanIngestZeroAlloc pins the
// allocation half of that claim; this experiment measures the
// throughput half). The sweep replays the same graph through the
// incremental engine's span path under three configurations: sink off
// (counters only), a no-op sink (envelope built per batch, then
// dropped), and the JSON sink encoding to io.Discard (the full ccserve
// -events cost). Events fire at batch boundaries — K per replay — so
// even the full JSON configuration amortizes to nothing per edge.
func E15(scale Scale) *Table {
	t := &Table{
		ID:     "E15",
		Title:  "observability overhead: sink off vs no-op sink vs JSON sink",
		Claim:  "with no sink attached instrumentation is free (counters are single atomic adds; no envelope is built) — sink-off throughput within noise of the uninstrumented pipeline — and even the full JSON sink costs only per-batch envelope+encode work",
		Header: []string{"workload", "n", "m", "K", "config", "ms", "Medges/s", "overhead %"},
	}
	var g *graph.Graph
	var name string
	var k, trials int
	if scale == Full {
		name, g, k, trials = "gnm-1e6x10", graph.Gnm(1_000_000, 10_000_000, 1), 16, 5
	} else {
		name, g, k, trials = "gnm-5e4x8", graph.Gnm(50_000, 400_000, 1), 16, 2
	}
	configs := []struct {
		label string
		sink  obs.Sink
	}{
		{"sink off (counters only)", nil},
		{"no-op sink (envelope built)", noopSink{}},
		{"json sink (io.Discard)", obs.NewJSONSink(io.Discard)},
	}
	defer obs.SetSink(nil)
	replay := func() time.Duration {
		eng := forest.New(g.N, forest.Options{})
		t0 := time.Now()
		for _, b := range g.SpanBatches(k) {
			eng.AddSpan(b)
		}
		d := time.Since(t0)
		eng.Close()
		return d
	}
	// One untimed warm replay, then trials interleaved round-robin
	// across the configurations: sequential per-config blocks would
	// hand the later configs warmer pages and a grown heap, which reads
	// as (negative) sink overhead that isn't there.
	replay()
	best := make([]time.Duration, len(configs))
	for trial := 0; trial < trials; trial++ {
		for i, cfg := range configs {
			obs.SetSink(cfg.sink)
			d := replay()
			if best[i] == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	for i, cfg := range configs {
		d := best[i]
		m := g.NumEdges()
		t.Add(name, g.N, m, k, cfg.label,
			float64(d.Nanoseconds())/1e6,
			float64(m)/d.Seconds()/1e6,
			(float64(d)/float64(best[0])-1)*100)
	}
	t.Notes = append(t.Notes,
		"each row: best of "+fmt.Sprint(trials)+" replays of the same graph through a fresh incremental engine (SpanBatches + AddSpan), trials interleaved across configs",
		"counters (pramcc_uf_batches_total, pramcc_uf_edges_total, pool gauges) are active in every row — they cannot be turned off",
		"events fire at batch boundaries: K envelopes per replay, so per-edge event cost is K/m ≈ 0",
		"overhead % is relative to the sink-off row of the same run; small negatives are measurement noise")
	return t
}

// E16: adaptive span coalescing under queued load. Every span the
// incremental engine ingests pays a fixed cost independent of the
// span's size — a Θ(n) parallel flatten plus a fresh labels array for
// the published snapshot — so many small spans are far more expensive
// than one wide span carrying the same edges. The shard worker
// (internal/shard) exploits the SoA span layout to merge consecutive
// queued same-tenant spans into one engine batch with two column
// appends. This experiment drives small spans over large tenants
// (n ≫ edges per span, the fixed-cost-dominated regime) from enough
// concurrent clients that the shard queues stay non-empty, and
// compares CoalesceLimit 1 (off) against the default 16 (on). The
// spatio-temporal-compression reading: queue depth is time, span
// width is space; coalescing trades queued time for batch width.
func E16(scale Scale) *Table {
	t := &Table{
		ID:    "E16",
		Title: "span coalescing under queued multi-tenant load: off vs on",
		Claim: "merging consecutive queued same-tenant spans into one engine batch pays the per-batch fixed costs (parallel flatten + fresh labels allocation, plus WAL fsync when durable) once per merged run instead of once per span — ≥1.2× ingest throughput whenever clients outpace the shard worker",
		Header: []string{"config", "tenants", "shards", "n/tenant", "spans/tenant",
			"clients/tenant", "ms", "spans/s", "Kedges/s", "speedup ×"},
	}
	var n, spans, trials int
	const tenants, shards, conc = 2, 2, 8
	if scale == Full {
		n, spans, trials = 1_000_000, 192, 3
	} else {
		n, spans, trials = 50_000, 24, 2
	}
	work := make([][]graph.EdgeSpan, tenants)
	edges := 0
	for i := range work {
		g := graph.Gnm(n, spans*64, int64(i+1))
		work[i] = g.SpanBatches(spans)
		edges += g.NumEdges()
	}
	configs := []struct {
		label string
		limit int
	}{
		{"coalesce off (limit 1)", 1},
		{"coalesce on (limit 16)", 16},
	}
	run := func(limit int) time.Duration {
		r, err := pramcc.NewRouter(pramcc.RouterConfig{
			Shards: shards, CoalesceLimit: limit,
			QueueCap: 2 * tenants * spans, TenantQueueCap: 2 * spans,
			// Two engine workers per tenant: a multi-tenant host shares
			// cores across tenants instead of letting one engine's
			// spinning pool occupy every core — and a saturated pool
			// starves the very clients that must outpace the shard
			// worker for a queue (and thus a coalescable run) to exist.
			Options: []pramcc.Option{pramcc.WithWorkers(2)},
		})
		if err != nil {
			panic(err)
		}
		defer r.Close()
		handles := make([]*pramcc.Tenant, tenants)
		for i := range handles {
			if handles[i], err = r.CreateTenant(fmt.Sprintf("e16-%d", i), n); err != nil {
				panic(err)
			}
		}
		t0 := time.Now()
		var wg sync.WaitGroup
		for i, tn := range handles {
			ch := make(chan graph.EdgeSpan, len(work[i]))
			for _, s := range work[i] {
				ch <- s
			}
			close(ch)
			for c := 0; c < conc; c++ {
				wg.Add(1)
				go func(tn *pramcc.Tenant) {
					defer wg.Done()
					for s := range ch {
						for {
							_, err := tn.IngestSpan(context.Background(), s)
							if err == nil {
								break
							}
							if !errors.Is(err, pramcc.ErrOverloaded) && !errors.Is(err, pramcc.ErrTenantBacklog) {
								panic(err)
							}
							time.Sleep(50 * time.Microsecond)
						}
					}
				}(tn)
			}
		}
		wg.Wait()
		return time.Since(t0)
	}
	// One untimed warm run, then trials interleaved round-robin across
	// the configurations (same rationale as E15: sequential blocks hand
	// later configs a warmer heap).
	run(configs[len(configs)-1].limit)
	best := make([]time.Duration, len(configs))
	for trial := 0; trial < trials; trial++ {
		for i, cfg := range configs {
			d := run(cfg.limit)
			if best[i] == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	for i, cfg := range configs {
		d := best[i]
		t.Add(cfg.label, tenants, shards, n, spans, conc,
			float64(d.Nanoseconds())/1e6,
			float64(tenants*spans)/d.Seconds(),
			float64(edges)/d.Seconds()/1e3,
			float64(best[0])/float64(d))
	}
	t.Notes = append(t.Notes,
		"each row: best of "+fmt.Sprint(trials)+" replays (interleaved across configs) of every tenant's spans through a fresh in-memory router, "+fmt.Sprint(conc)+" concurrent clients per tenant retrying on backpressure",
		"spans average 64 edges against tenants of n ≥ 50k vertices, so the engine's per-batch fixed cost (Θ(n) flatten + fresh labels array) dominates and coalescing amortizes it across the merged run",
		"per-tenant engines run WithWorkers(2): on a small host an uncapped spinning worker pool starves the clients, the queue never forms, and coalescing has nothing to merge",
		"speedup × is relative to the coalesce-off row; the unions themselves are identical — TestRouterOracleEquivalence pins that coalescing never changes the partition")
	return t
}

// budgetsForDefault reproduces the default budget schedule for a Gnm
// workload with the given density at size n, for reporting.
func budgetsForDefault(n int, density float64) func(int32) int64 {
	p := core.DefaultParams(0)
	b := density
	if b < p.MinBudget {
		b = p.MinBudget
	}
	capV := p.BudgetCapFactor * float64(n)
	var bs []int64
	bs = append(bs, 0)
	cur := b
	for len(bs) < 64 {
		if cur >= capV {
			bs = append(bs, int64(capV))
			break
		}
		bs = append(bs, int64(cur))
		nb := powMath(cur, p.Growth)
		if nb <= cur+1 {
			nb = cur + 1
		}
		cur = nb
	}
	return func(l int32) int64 {
		if l <= 0 {
			return 0
		}
		if int(l) < len(bs) {
			return bs[l]
		}
		return bs[len(bs)-1]
	}
}
