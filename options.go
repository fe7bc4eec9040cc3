package pramcc

import (
	"fmt"
	"strings"
)

// Backend selects the execution engine behind Components.
type Backend int

const (
	// BackendSimulated runs on the step-synchronous ARBITRARY CRCW
	// PRAM simulator (internal/pram): every constant-time model step
	// is a barrier, and full model-cost statistics are accounted
	// (steps, work, processors, space). This is the backend the
	// paper's bounds are checked on; wall-clock speed is not a goal.
	BackendSimulated Backend = iota
	// BackendNative runs on the shared-memory engine
	// (internal/native): goroutines with atomic CAS-min on the label
	// array, no step barriers and no per-step accounting. Same
	// partition, real wall-clock speed; all model-cost Stats fields
	// are zero.
	BackendNative
	// BackendIncremental runs on the streaming union-find engine
	// (internal/incremental): a lock-free CAS-linked disjoint-set
	// forest built for batched edge arrival. Components feeds the
	// whole graph as a single batch and returns the same partition as
	// the other backends; the engine's real strength is streaming
	// ingest through a Service (IngestSpan, Ingest), where each batch
	// costs Θ(batch) union work plus a Θ(n) snapshot flatten instead
	// of a full multi-round recompute over all edges. Model-only Stats
	// fields are zero.
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

// WithSeed sets the random seed. Runs with the same seed make the same
// random choices regardless of the worker count; only arbitrary-write
// resolutions may differ.
func WithSeed(seed uint64) Option { return func(c *config) { c.seed = seed } }

// WithWorkers sets the host worker-goroutine count: the pool backing
// the PRAM simulation, or the shard workers of BackendNative. 0 (the
// default) selects GOMAXPROCS; 1 gives a deterministic sequential
// schedule on the simulator.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithGrain fixes the scheduler claim grain — the number of items a
// worker claims per atomic fetch-and-add — for the sharded engines
// (BackendNative, BackendIncremental). 0 (the default) selects
// adaptive sizing, total/(workers·8) clamped to [64, 4096], which is
// right for almost every workload; a fixed grain exists for the E17
// grain-sweep experiments and for reproducing legacy behaviour
// (grain 4096). The simulator backend schedules through the same
// shard machinery but always sizes adaptively.
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
