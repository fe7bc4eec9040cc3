// Package core implements the paper's primary contribution: the
// O(log d + log log_{m/n} n)-time connected components algorithm of
// Theorem 3 (§3, §D).
//
//	Faster Connected Components algorithm: COMPACT;
//	repeat {EXPAND-MAXLINK} until the graph has diameter ≤ 1 and all
//	trees are flat; run Connected Components algorithm from Theorem 1.
//
// Each round of EXPAND-MAXLINK executes the eight steps of §3.1:
// MAXLINK+ALTER, random level boost, budget-matched hashing of
// neighbour roots into per-root tables, dormancy propagation on
// collisions, one distance-doubling table expansion, MAXLINK+SHORTCUT+
// ALTER, dormant level increase, and block (re)allocation sized by the
// new level. Levels only increase, a non-root's level is forever below
// its parent's (Lemma 3.2), and budgets grow double-exponentially so
// every vertex can afford a table holding its whole component after
// O(log log_{m/n} n) level increases, while the path-potential argument
// (§3.5) bounds the number of rounds by O(log d + log log_{m/n} n).
package core

import (
	"context"
	"math"

	"repro/internal/pram"
)

// Params are the scaled constants of the algorithm; each field's
// comment maps it to the paper's value and justifies the scaling.
type Params struct {
	Seed uint64

	// Ctx, when non-nil, is checked at every round boundary of the
	// repeat loop (and between PREPARE phases): on cancellation or
	// deadline the run stops promptly, Result.CtxErr records ctx.Err(),
	// and Result.Labels is nil — a cancelled run never returns a
	// partial labeling.
	Ctx context.Context

	// MinBudget floors the initial budget b₁ = max(m/n′, MinBudget)
	// (paper: max{m/n, log^c n}/log² n with c = 200). Default 16.
	MinBudget float64
	// Growth is γ in b_{ℓ+1} = b_ℓ^γ (paper: exponent 1.01 on the
	// exponent tower, i.e. b_ℓ = b₁^{1.01^{ℓ-1}}). Default 1.15 — the
	// ablation sweep (E10) shows coarser ladders overshoot the top
	// budgets and break the O(m) space shape at bench scales.
	Growth float64
	// BudgetCapFactor caps budgets at (BudgetCapFactor·(n+2))² so the
	// top-level table (of size √b) holds any component — the paper's
	// maximal level L ("a vertex at level L must have enough space to
	// find all vertices in its component", §1.2.1).
	BudgetCapFactor float64
	// BoostC and BoostExp define the step-(2) level-increase
	// probability min(BoostCap, BoostC·ln(n)/b^BoostExp)
	// (paper: 10·log n / b^0.1). Defaults 0.3, 0.5.
	BoostC, BoostExp float64
	// BoostCap caps the boost probability. Default 0.25.
	BoostCap float64
	// PrepDensity and PrepPhases parameterize COMPACT's Vanilla
	// preprocessing, as in ccbase.
	PrepDensity float64
	PrepPhases  int
	// MaxRounds caps the repeat loop; exhausting it sets Result.Failed
	// and falls through to the Theorem-1 postprocessing, which is
	// always correct. ≤0 derives a default.
	MaxRounds int
	// MaxLinkIters is the number of MAXLINK iterations (paper: 2;
	// ablation E10 sets 1).
	MaxLinkIters int
	// DisableBoost turns step (2) off (ablation E10).
	DisableBoost bool
	// SkipPostprocess stops after the repeat loop, returning the raw
	// root labels without the Theorem-1 stage (tests and ablations;
	// labels are then correct only if every component has one root).
	SkipPostprocess bool
	// AddedCap bounds the added-edge store as a multiple of m before a
	// dedup pass is forced. Default 4.
	AddedCap float64
	// SpaceCap aborts the repeat loop (Failed=true, Theorem-1
	// postprocessing still yields correct labels) when the blocks
	// requested in a single round exceed SpaceCap*m words. The machine
	// owns Theta(m) processors, so needing more is exactly the paper's
	// bad-probability event (Lemma 3.10 fails). Default 256.
	SpaceCap float64
	// CheckInvariants validates Lemma 3.2 (levels strictly increase
	// along parent pointers) and acyclicity after every round,
	// recording the first violation in Result.InvariantErr. Test-only;
	// costs O(n) host time per round.
	CheckInvariants bool
}

// DefaultParams returns the scaled defaults used by the experiments.
func DefaultParams(seed uint64) Params {
	return Params{
		Seed:            seed,
		MinBudget:       16,
		Growth:          1.15,
		BudgetCapFactor: 2,
		BoostC:          0.3,
		BoostExp:        0.5,
		BoostCap:        0.25,
		PrepDensity:     8,
		MaxLinkIters:    2,
		AddedCap:        4,
		SpaceCap:        256,
	}
}

func (p Params) filled() Params {
	d := DefaultParams(p.Seed)
	if p.MinBudget == 0 {
		p.MinBudget = d.MinBudget
	}
	if p.Growth == 0 {
		p.Growth = d.Growth
	}
	if p.BudgetCapFactor == 0 {
		p.BudgetCapFactor = d.BudgetCapFactor
	}
	if p.BoostC == 0 {
		p.BoostC = d.BoostC
	}
	if p.BoostExp == 0 {
		p.BoostExp = d.BoostExp
	}
	if p.BoostCap == 0 {
		p.BoostCap = d.BoostCap
	}
	if p.PrepDensity == 0 {
		p.PrepDensity = d.PrepDensity
	}
	if p.MaxLinkIters == 0 {
		p.MaxLinkIters = d.MaxLinkIters
	}
	if p.AddedCap == 0 {
		p.AddedCap = d.AddedCap
	}
	if p.SpaceCap == 0 {
		p.SpaceCap = d.SpaceCap
	}
	return p
}

// RoundTrace records one EXPAND-MAXLINK round for the experiments.
type RoundTrace struct {
	Roots         int   // roots at round start
	MaxLevel      int32 // maximum level after the round
	LevelUpsBoost int   // step-(2) increases
	LevelUpsDorm  int   // step-(7) increases
	Dormant       int   // roots marked dormant this round
	NewAdded      int   // new added edges materialized from tables
	BlockWords    int64 // block words allocated in step (8)
	ParentChanges int   // parent updates in this round (MAXLINKs + SHORTCUT)
	// LevelHist counts roots by level at round start (Experiment E6:
	// per-budget level-up probabilities, Lemma 3.9).
	LevelHist map[int32]int
	// LevelUpsByLevel counts level increases by the root's level at
	// round start.
	LevelUpsByLevel map[int32]int
}

// Result is the outcome of Faster Connected Components.
type Result struct {
	Labels []int32
	Rounds int // EXPAND-MAXLINK rounds
	Prep   int // Vanilla phases inside COMPACT
	// PostPhases is the number of Theorem-1 phases of the final stage.
	PostPhases int
	MaxLevel   int32
	// CumBlockWords is Σ over rounds of step-(8) allocations — the
	// quantity Lemma 3.10 bounds by O(m).
	CumBlockWords int64
	// PeakBlockWords is the largest single-round allocation.
	PeakBlockWords int64
	// AddedEdges counts the added edges materialized over the run,
	// repeats included: every round re-appends each table entry. A
	// forced dedup (AddedCap) resets it to the distinct edges then held.
	AddedEdges    int
	CompactRounds int // hashing rounds used by approximate compaction
	Trace         []RoundTrace
	Failed        bool  // round cap exhausted (bad-probability event)
	InvariantErr  error // first Lemma 3.2 violation (CheckInvariants only)
	// CtxErr is ctx.Err() when Params.Ctx was cancelled mid-run; Labels
	// is nil in that case.
	CtxErr error
	Stats  pram.Stats
}

// budgetTable precomputes b_ℓ for ℓ = 1..maxLevels with growth γ and a
// cap; budgets are strictly increasing until they reach the cap.
type budgetTable struct {
	b   []int64 // b[ℓ] for ℓ ≥ 1; b[0] = 0
	cap int64
}

func newBudgetTable(b1 float64, growth, capf float64, n int) *budgetTable {
	capV := int64(capf*float64(n+2)) * int64(capf*float64(n+2))
	if capV < 16 {
		capV = 16
	}
	t := &budgetTable{cap: capV}
	t.b = append(t.b, 0) // level 0: no block
	cur := b1
	if cur < 4 {
		cur = 4
	}
	for {
		v := int64(cur)
		if cur >= math.MaxInt64 || v >= capV { // int64(cur) overflows past 2⁶³
			t.b = append(t.b, capV)
			break
		}
		t.b = append(t.b, v)
		next := math.Pow(cur, growth)
		if next <= cur+1 {
			next = cur + 1
		}
		cur = next
		if len(t.b) > 192 {
			t.b = append(t.b, capV)
			break
		}
	}
	return t
}

// at returns b_ℓ, saturating at the cap for levels beyond the table.
func (t *budgetTable) at(level int32) int64 {
	if level <= 0 {
		return 0
	}
	if int(level) < len(t.b) {
		return t.b[level]
	}
	return t.cap
}

// tableSize returns the size √b of the first table of a block of size b.
func tableSize(b int64) int {
	if b <= 0 {
		return 0
	}
	s := int(math.Sqrt(float64(b)))
	if s < 4 {
		s = 4
	}
	return s
}
