package pramcc

import (
	"fmt"
	"strings"
)

// Backend selects the execution engine behind Components.
type Backend int

const (
	// BackendSimulated runs on the step-synchronous ARBITRARY CRCW
	// PRAM simulator (internal/pram) on one host thread: every
	// constant-time model step completes before the next begins, and
	// full model-cost statistics are accounted (steps, work,
	// processors, space). A seeded run is bit-identical on every
	// host. This is the backend the paper's bounds are checked on;
	// wall-clock speed is not a goal.
	BackendSimulated Backend = iota
	// BackendNative runs on the shared-memory engine
	// (internal/forest): goroutines with atomic CAS root links on the
	// label array, no step barriers and no per-step accounting. Same
	// partition, real wall-clock speed; all model-cost Stats fields
	// are zero.
	BackendNative
	// BackendIncremental runs on the same engine (internal/forest)
	// and adds streaming: a lock-free CAS-linked disjoint-set forest
	// kept across batches. A one-shot solve is BackendNative's, and
	// its Stats count it as one batch; the backend's real strength is
	// streaming ingest through a Service (IngestSpan, Ingest), where
	// each batch costs Θ(batch) union work plus a Θ(n) snapshot
	// flatten instead of a full recompute over all edges. Model-only
	// Stats fields are zero.
	BackendIncremental
)

// String returns the backend's registered name ("simulated",
// "native", "incremental", …).
func (b Backend) String() string {
	if info, ok := lookupBackend(b); ok {
		return info.name
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// ParseBackend maps a flag value to a Backend. Matching is
// case-insensitive against the registry's canonical names and aliases
// ("sim" for simulated, "inc" for incremental); the empty string
// selects the default BackendSimulated. The error of an unknown name
// lists the actually registered backends.
func ParseBackend(s string) (Backend, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	if t == "" {
		return BackendSimulated, nil
	}
	for _, info := range registry {
		if t == info.name {
			return info.backend, nil
		}
		for _, a := range info.aliases {
			if t == a {
				return info.backend, nil
			}
		}
	}
	return 0, errUnknownBackend(fmt.Sprintf("%q", s))
}

// MarshalText implements encoding.TextMarshaler with the registered
// backend name, so a Backend embeds directly in JSON bench output and
// works as a flag.TextVar value. Marshaling an unregistered value is
// an error rather than an unparseable "Backend(n)" string.
func (b Backend) MarshalText() ([]byte, error) {
	info, ok := lookupBackend(b)
	if !ok {
		return nil, errUnknownBackend(int(b))
	}
	return []byte(info.name), nil
}

// UnmarshalText implements encoding.TextUnmarshaler via ParseBackend.
func (b *Backend) UnmarshalText(text []byte) error {
	parsed, err := ParseBackend(string(text))
	if err != nil {
		return err
	}
	*b = parsed
	return nil
}

// Option configures an algorithm run.
type Option func(*config)

type config struct {
	seed         uint64
	workers      int
	grain        int
	backend      Backend
	backendSet   bool
	maxRounds    int
	maxPhases    int
	growth       float64
	minBudget    float64
	disableBoost bool
	maxLinkIters int
	combining    bool

	// Durable-service knobs, consulted by Open and Service.Persist only.
	checkpointEvery int
	initialVertices int
}

func defaultConfig() config {
	return config{seed: 1, maxLinkIters: 2, backend: BackendSimulated}
}

// WithBackend selects the execution engine used by Components. The
// default is BackendSimulated — except for pramcc.Open, whose durable
// replay needs a streaming engine and therefore defaults to
// BackendIncremental when this option is absent. The
// algorithm-specific entry points (ConnectedComponents,
// ConnectedComponentsLogLog, SpanningForest, VanillaComponents) are
// simulator-only and ignore this option.
func WithBackend(b Backend) Option {
	return func(c *config) { c.backend, c.backendSet = b, true }
}

// WithCheckpointEvery sets how many batches a durable Service
// (pramcc.Open, Service.Persist) logs to the write-ahead log between
// snapshot checkpoints: smaller values bound replay time at the cost
// of more frequent Θ(n) snapshot writes. Values below 1 select the
// default (64). Non-durable entry points ignore it.
func WithCheckpointEvery(n int) Option { return func(c *config) { c.checkpointEvery = n } }

// WithInitialVertices sets the vertex count a durable Service starts
// with when pramcc.Open finds no existing state in its directory. It
// is ignored on a warm start — there the recovered snapshot defines
// the vertex set — and by every non-durable entry point.
func WithInitialVertices(n int) Option { return func(c *config) { c.initialVertices = n } }

// WithSeed sets the random seed. Simulated runs with the same seed are
// bit-identical on every host: the same random choices, the same
// ARBITRARY write resolutions, the same labels and model-cost Stats.
func WithSeed(seed uint64) Option { return func(c *config) { c.seed = seed } }

// WithWorkers sets the worker-goroutine count of BackendNative and
// BackendIncremental. 0 (the default) selects GOMAXPROCS. The PRAM
// simulator ignores it: it runs every step on the calling goroutine,
// in processor order, and reports Stats.Workers = 1.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithGrain fixes the scheduler claim grain — the number of items a
// worker claims per atomic fetch-and-add — for the sharded engines
// (BackendNative, BackendIncremental). 0 (the default) selects
// adaptive sizing, total/(workers·8) clamped to [64, 4096], which is
// right for almost every workload; a fixed grain pins the claim size
// for benchmarks and reproduces legacy behaviour (grain 4096). The
// simulator has no scheduler: it runs every step on the calling
// goroutine.
func WithGrain(n int) Option { return func(c *config) { c.grain = n } }

// WithMaxRounds caps the main loop of ConnectedComponents (EXPAND-
// MAXLINK rounds). Exhausting the cap is reported via Stats.Failed;
// the returned labels are still correct because the Theorem-1
// postprocessing stage finishes the job.
func WithMaxRounds(n int) Option { return func(c *config) { c.maxRounds = n } }

// WithMaxPhases caps the phase loops of ConnectedComponentsLogLog,
// SpanningForest and VanillaComponents.
func WithMaxPhases(n int) Option { return func(c *config) { c.maxPhases = n } }

// WithBudgetGrowth sets the budget growth exponent γ (b_{ℓ+1} = b_ℓ^γ)
// of ConnectedComponents. The paper's schedule is b_ℓ = b₁^{1.01^{ℓ−1}};
// the default scaled value is 1.5. Used by ablation E10.
func WithBudgetGrowth(gamma float64) Option { return func(c *config) { c.growth = gamma } }

// WithMinBudget floors the initial budget b₁ of ConnectedComponents
// (paper: max{m/n, log^c n}/log² n). Default 16.
func WithMinBudget(b float64) Option { return func(c *config) { c.minBudget = b } }

// WithoutBoost disables the step-(2) random level increase of
// EXPAND-MAXLINK (ablation E10). The algorithm remains correct; the
// space bound of Lemma 3.10 loses its proof.
func WithoutBoost() Option { return func(c *config) { c.disableBoost = true } }

// WithMaxLinkIters sets the number of MAXLINK iterations per call
// (paper: 2; ablation E10 compares 1).
func WithMaxLinkIters(n int) Option { return func(c *config) { c.maxLinkIters = n } }

// WithCombining runs ConnectedComponentsLogLog and SpanningForest in
// the COMBINING CRCW mode of §B.5 (the exact ongoing count n′ is
// available each phase) instead of the default ARBITRARY mode with the
// ñ update rule.
func WithCombining() Option { return func(c *config) { c.combining = true } }
