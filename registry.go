package pramcc

import (
	"context"
	"fmt"
	"strings"

	"repro/graph"
	"repro/internal/core"
	"repro/internal/incremental"
	"repro/internal/native"
	"repro/internal/pram"
)

// solveOutput is the reusable buffer an engine fills in place of
// returning freshly allocated results: labels is resized (reusing
// capacity) and overwritten, stats is fully rewritten except Wall,
// which the Solver measures around the engine call. Keeping the buffer
// on the caller side is what lets a long-lived Solver reach zero
// steady-state allocations on the native backend.
type solveOutput struct {
	labels []int32
	stats  Stats
}

// setLabels overwrites out.labels with src, reusing capacity.
func (out *solveOutput) setLabels(src []int32) {
	out.labels = append(out.labels[:0], src...)
}

// engine is the execution-backend interface behind Solver: one
// implementation per registered Backend, each adapting one of the
// internal engine packages (internal/core via the PRAM simulator,
// internal/native, internal/incremental). solve computes the component
// labeling of g into out, honouring ctx at round/batch boundaries; a
// cancelled solve returns ctx.Err() and leaves no partial result
// visible to callers. close releases any long-lived resources (worker
// pools); it is idempotent.
type engine interface {
	solve(ctx context.Context, g *graph.Graph, out *solveOutput) error
	close()
}

// streamEngine is the optional extension implemented by engines that
// maintain a live labeling under streaming edge batches (today:
// the incremental union-find). Service type-asserts for it.
type streamEngine interface {
	engine
	// reset re-initialises the live labeling over n isolated vertices.
	reset(n int)
	// restore re-initialises the live labeling to a previously
	// published canonical labeling — the recovery path after a
	// cancelled destructive rebuild (see Service.Update).
	restore(labels []int32)
	// grow extends the vertex set to n, preserving components.
	grow(n int)
	// ingest unions one batch — a columnar arc-pair span, the
	// zero-copy interchange representation of the whole pipeline —
	// into the live labeling and fills out with the freshly published
	// snapshot, returning its component count. On a cancelled ctx the
	// previously published labeling stays in effect and ctx.Err() is
	// returned. [][2]int callers adapt through graph.FromPairs at the
	// public-API boundary (Service.Ingest), not here.
	ingest(ctx context.Context, span graph.EdgeSpan, out *solveOutput) (int, error)
}

// backendInfo is one registry entry: the Backend value, its canonical
// flag/JSON name, accepted aliases, and the factory building its
// engine from a config.
type backendInfo struct {
	backend   Backend
	name      string
	aliases   []string
	newEngine func(c *config) engine
}

// registry lists every execution backend in registration order. CLIs
// enumerate it (through Backends/BackendNames) instead of hard-coding
// flag strings, and ParseBackend/UnmarshalText resolve names against
// it, so adding a backend is one entry here plus an engine adapter.
var registry = []backendInfo{
	{
		backend: BackendSimulated,
		name:    "simulated",
		aliases: []string{"sim"},
		newEngine: func(c *config) engine {
			return &simulatedEngine{workers: c.workers, params: coreParams(c)}
		},
	},
	{
		backend: BackendNative,
		name:    "native",
		newEngine: func(c *config) engine {
			return &nativeEngine{eng: native.NewEngineOpt(native.Options{Workers: c.workers, Grain: c.grain})}
		},
	},
	{
		backend: BackendIncremental,
		name:    "incremental",
		aliases: []string{"inc"},
		newEngine: func(c *config) engine {
			return &incrementalEngine{eng: incremental.New(0, incremental.Options{Workers: c.workers, Grain: c.grain})}
		},
	},
}

// lookupBackend finds the registry entry for b.
func lookupBackend(b Backend) (backendInfo, bool) {
	for _, info := range registry {
		if info.backend == b {
			return info, true
		}
	}
	return backendInfo{}, false
}

// Backends returns the registered execution backends in registration
// order — the dynamic enumeration CLIs and benchmarks iterate instead
// of hard-coding backend lists.
func Backends() []Backend {
	out := make([]Backend, len(registry))
	for i, info := range registry {
		out[i] = info.backend
	}
	return out
}

// BackendNames returns the canonical name of every registered backend,
// in registration order — ready for flag usage strings.
func BackendNames() []string {
	out := make([]string, len(registry))
	for i, info := range registry {
		out[i] = info.name
	}
	return out
}

func errUnknownBackend(v interface{}) error {
	return fmt.Errorf("pramcc: unknown backend %v (registered backends: %s)",
		v, strings.Join(BackendNames(), ", "))
}

// ---- simulated: the Theorem-3 algorithm on the PRAM simulator ----

// simulatedEngine runs core.Run on a fresh step-synchronous machine
// per solve: the simulator's cost accounting is per-run state, so the
// machine itself is not reused, only the output buffers are. This is
// the backend where amortized allocation is irrelevant next to the
// simulation itself.
type simulatedEngine struct {
	workers int
	params  core.Params // everything but Ctx, which each solve sets
}

// coreParams maps a config's algorithm options onto core.Params.
func coreParams(c *config) core.Params {
	p := core.DefaultParams(c.seed)
	if c.maxRounds > 0 {
		p.MaxRounds = c.maxRounds
	}
	if c.growth > 0 {
		p.Growth = c.growth
	}
	if c.minBudget > 0 {
		p.MinBudget = c.minBudget
	}
	if c.maxLinkIters > 0 {
		p.MaxLinkIters = c.maxLinkIters
	}
	p.DisableBoost = c.disableBoost
	return p
}

func (e *simulatedEngine) solve(ctx context.Context, g *graph.Graph, out *solveOutput) error {
	m := pram.New(e.workers)
	p := e.params
	p.Ctx = ctx
	res := core.Run(m, g, p)
	if res.CtxErr != nil {
		return res.CtxErr
	}
	out.setLabels(res.Labels)
	out.stats = Stats{
		Backend:       BackendSimulated,
		Workers:       m.Workers(),
		Rounds:        res.Rounds,
		PRAMSteps:     res.Stats.Steps,
		Work:          res.Stats.Work,
		MaxProcessors: res.Stats.MaxProcs,
		PeakSpace:     res.Stats.MaxSpace,
		MaxLevel:      int(res.MaxLevel),
		CumBlockWords: res.CumBlockWords,
		Prep:          res.Prep,
		PostPhases:    res.PostPhases,
		Failed:        res.Failed,
	}
	return nil
}

func (e *simulatedEngine) close() {}

// ---- native: the shared-memory CAS-min engine ----

// nativeEngine wraps a long-lived native.Engine: the worker pool and
// the engine's pre-bound worker closure live across solves, and the
// labels are computed directly into out.labels, so repeated solves on
// same-sized graphs allocate nothing.
type nativeEngine struct {
	eng *native.Engine
}

func (e *nativeEngine) solve(ctx context.Context, g *graph.Graph, out *solveOutput) error {
	if cap(out.labels) >= g.N {
		out.labels = out.labels[:g.N]
	} else {
		out.labels = make([]int32, g.N)
	}
	rounds, err := e.eng.Run(ctx, g, out.labels)
	if err != nil {
		return err
	}
	out.stats = Stats{
		Backend: BackendNative,
		Workers: e.eng.Workers(),
		Rounds:  rounds,
		Grain:   e.eng.Grain(),
	}
	return nil
}

func (e *nativeEngine) close() { e.eng.Close() }

// ---- incremental: the streaming union-find engine ----

// incrementalEngine wraps a long-lived incremental.Engine. A one-shot
// solve resets the forest (reusing its parent buffer and worker pool)
// and ingests the whole graph as a single batch; Service additionally
// uses the streamEngine surface to ingest batches into the live
// labeling.
type incrementalEngine struct {
	eng *incremental.Engine
}

func (e *incrementalEngine) solve(ctx context.Context, g *graph.Graph, out *solveOutput) error {
	e.eng.Reset(g.N)
	snap, err := e.eng.AddGraphContext(ctx, g)
	if err != nil {
		return err
	}
	// Published snapshot labels are immutable, so they are shared
	// into the output rather than copied (the engine allocates a
	// fresh slice per publish anyway).
	out.labels = snap.Labels
	out.stats = Stats{
		Backend: BackendIncremental,
		Workers: e.eng.Workers(),
		Rounds:  snap.Batches, // one batch for a one-shot run
		Grain:   e.eng.Grain(),
	}
	return nil
}

func (e *incrementalEngine) close() { e.eng.Close() }

func (e *incrementalEngine) reset(n int) { e.eng.Reset(n) }

func (e *incrementalEngine) restore(labels []int32) { e.eng.RestoreLabels(labels) }

func (e *incrementalEngine) grow(n int) { e.eng.Grow(n) }

func (e *incrementalEngine) ingest(ctx context.Context, span graph.EdgeSpan, out *solveOutput) (int, error) {
	snap, err := e.eng.AddSpanContext(ctx, span)
	if err != nil {
		return 0, err
	}
	// As in solve: published snapshot labels are immutable and fresh
	// per batch, so sharing them avoids a redundant Θ(n) copy on the
	// per-batch hot path.
	out.labels = snap.Labels
	out.stats = Stats{
		Backend: BackendIncremental,
		Workers: e.eng.Workers(),
		Rounds:  snap.Batches,
		Grain:   e.eng.Grain(),
	}
	return snap.Components, nil
}
