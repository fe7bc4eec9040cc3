package pramcc

import (
	"context"
	"fmt"
	"strings"

	"repro/graph"
	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/pram"
)

// solveOutput is the reusable buffer an engine fills in place of
// returning freshly allocated results: labels is resized (reusing
// capacity) and overwritten, components is the labeling's component
// count, and stats is fully rewritten except Wall, which the Solver
// measures around the engine call. Keeping the buffer on the caller
// side is what lets a long-lived Solver reach zero steady-state
// allocations on the native backend.
type solveOutput struct {
	labels     []int32
	components int
	stats      Stats
}

// setLabels overwrites out.labels with src, reusing capacity.
func (out *solveOutput) setLabels(src []int32) {
	out.labels = append(out.labels[:0], src...)
}

// engine is the execution-backend interface behind Solver: one
// implementation per registered Backend, each adapting one of the
// internal engine packages (internal/core via the PRAM simulator, or
// internal/forest). solve validates g — a graph that Graph.Validate
// rejects gets exactly its error on every backend — and computes the
// component labeling of g into out, honouring ctx at round/chunk
// boundaries; a cancelled solve returns ctx.Err() and leaves no partial
// result visible to callers. g is never nil.
// close releases any long-lived resources (worker pools); it is
// idempotent.
type engine interface {
	solve(ctx context.Context, g *graph.Graph, out *solveOutput) error
	close()
}

// streamEngine is the optional extension implemented by engines that
// maintain a live labeling under streaming edge batches (today:
// the incremental union-find). Service type-asserts for it.
type streamEngine interface {
	engine
	// reset re-initialises the live labeling over n isolated vertices
	// and returns the identity labels it published, which are
	// immutable.
	reset(n int) []int32
	// restore re-initialises the live labeling to a canonical
	// labeling and publishes it without a copy, so labels must be
	// immutable: a published snapshot (after an Update, or to drop a
	// batch that never reached the WAL) or a recovered checkpoint. It
	// returns the labeling's component count.
	restore(labels []int32) int
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
			return &simulatedEngine{params: coreParams(c)}
		},
	},
	{
		backend: BackendNative,
		name:    "native",
		newEngine: func(c *config) engine {
			return &nativeEngine{eng: newForest(c)}
		},
	},
	{
		backend: BackendIncremental,
		name:    "incremental",
		aliases: []string{"inc"},
		newEngine: func(c *config) engine {
			return &incrementalEngine{nativeEngine{eng: newForest(c)}}
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
	params core.Params // everything but Ctx, which each solve sets
	seen   []bool      // countLabels scratch
}

// simulatorWorkers is the Stats.Workers every simulated run reports:
// the PRAM simulator runs each step on the calling goroutine, so a
// seeded run resolves its ARBITRARY writes the same way on every host.
// WithWorkers does not apply to it.
const simulatorWorkers = 1

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
	if err := g.Validate(); err != nil {
		return err
	}
	m := pram.New()
	p := e.params
	p.Ctx = ctx
	res := core.Run(m, g, p)
	if res.CtxErr != nil {
		return res.CtxErr
	}
	out.setLabels(res.Labels)
	out.components = countLabels(out.labels, &e.seen)
	out.stats = Stats{
		Backend:       BackendSimulated,
		Workers:       simulatorWorkers,
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

// ---- native and incremental: the shared-memory forest engine ----

// newForest builds the forest engine of a config, with its worker pool.
func newForest(c *config) *forest.Engine {
	return forest.New(0, forest.Options{Workers: c.workers, Grain: c.grain})
}

// nativeEngine wraps a long-lived forest.Engine: the worker pool and
// the engine's pre-bound chunk body live across solves, the graph is
// validated on that pool, and the labels are computed in place into
// out.labels, so repeated solves on same-sized graphs allocate nothing.
type nativeEngine struct {
	eng *forest.Engine
}

func (e *nativeEngine) solve(ctx context.Context, g *graph.Graph, out *solveOutput) error {
	rounds, err := e.run(ctx, g, out)
	out.stats = e.stats(BackendNative, rounds)
	return err
}

// run solves g into out.labels, reusing their capacity, and records
// the component count the engine's closing shortcut counted.
func (e *nativeEngine) run(ctx context.Context, g *graph.Graph, out *solveOutput) (int, error) {
	if cap(out.labels) >= g.N {
		out.labels = out.labels[:g.N]
	} else {
		out.labels = make([]int32, g.N)
	}
	rounds, err := e.eng.Run(ctx, g, out.labels)
	out.components = e.eng.Components()
	return rounds, err
}

func (e *nativeEngine) stats(b Backend, rounds int) Stats {
	return Stats{Backend: b, Workers: e.eng.Workers(), Rounds: rounds, Grain: e.eng.Grain()}
}

func (e *nativeEngine) close() { e.eng.Close() }

// incrementalEngine is the same engine with the streamEngine surface,
// which Service uses to link batches into the engine's live forest. A
// one-shot solve is the native one; its Stats count it as one batch
// into a fresh forest.
type incrementalEngine struct {
	nativeEngine
}

func (e *incrementalEngine) solve(ctx context.Context, g *graph.Graph, out *solveOutput) error {
	_, err := e.run(ctx, g, out)
	out.stats = e.stats(BackendIncremental, 1)
	return err
}

func (e *incrementalEngine) reset(n int) []int32 {
	e.eng.Reset(n)
	return e.eng.Snapshot().Labels
}

func (e *incrementalEngine) restore(labels []int32) int {
	e.eng.RestoreLabels(labels)
	return e.eng.Snapshot().Components
}

func (e *incrementalEngine) grow(n int) { e.eng.Grow(n) }

func (e *incrementalEngine) ingest(ctx context.Context, span graph.EdgeSpan, out *solveOutput) (int, error) {
	snap, err := e.eng.AddSpanContext(ctx, span)
	if err != nil {
		return 0, err
	}
	// Published snapshot labels are immutable and fresh per batch, so
	// they are shared into the output rather than copied, which avoids
	// a redundant Θ(n) copy on the per-batch hot path.
	out.labels = snap.Labels
	out.stats = e.stats(BackendIncremental, snap.Batches)
	return snap.Components, nil
}
