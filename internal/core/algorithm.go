package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/graph"
	"repro/internal/ccbase"
	"repro/internal/compaction"
	"repro/internal/hashing"
	"repro/internal/labels"
	"repro/internal/obs"
	"repro/internal/pram"
	"repro/internal/vanilla"
)

// mRounds counts EXPAND-MAXLINK rounds process-wide; round-boundary
// events carry the per-round detail when a sink is attached.
var mRounds = obs.Default.Counter("pramcc_sim_rounds_total",
	"EXPAND-MAXLINK rounds executed by the simulated backend")

// state is the mutable execution state of the repeat loop.
type state struct {
	p    Params
	n    int
	m    *pram.Machine
	coin pram.Coin

	d     *labels.Digraph
	arcs  *labels.ArcStore // altered original edges
	added *labels.ArcStore // altered added edges (materialized tables)

	level  []int32 // ℓ(v)
	budget []int64 // b(v): size of the block currently owned by v

	budgets *budgetTable
	fam     hashing.Family

	// Per-round scratch.
	tables     []*hashing.Table
	dormant    []int32
	boosted    []int32
	best       []int64
	parChange  int64
	lvlChange  int64
	overBudget bool
	incident   []int32 // per-round: endpoint of a non-loop edge
}

// Run executes Faster Connected Components algorithm on g.
func Run(m *pram.Machine, g *graph.Graph, p Params) Result {
	p = p.filled()
	ctx := p.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	n := g.N
	res := Result{}
	if err := ctx.Err(); err != nil {
		res.CtxErr = err
		return res
	}

	// ---- COMPACT (§D): PREPARE + approximate compaction renaming ----
	vst := vanilla.NewState(g.N, g.Span(), p.Seed)
	mEdges := g.NumEdges()
	if mEdges == 0 {
		res.Labels = vst.D.Parent
		res.Stats = m.Stats()
		return res
	}
	if float64(mEdges)/float64(max(n, 1)) <= p.PrepDensity {
		phases := p.PrepPhases
		if phases <= 0 {
			phases = 2*ceilLog2(ceilLog2(n)+1) + 2
		}
		for i := 0; i < phases; i++ {
			if err := ctx.Err(); err != nil {
				res.CtxErr = err
				res.Stats = m.Stats()
				return res
			}
			res.Prep++
			if !vst.RunPhase(m) {
				break
			}
		}
	}

	s := &state{
		p:       p,
		n:       n,
		m:       m,
		coin:    pram.Coin{Seed: p.Seed ^ 0x51afd7ed558ccd25},
		d:       vst.D,
		arcs:    vst.Arcs,
		added:   &labels.ArcStore{},
		level:   make([]int32, n),
		budget:  make([]int64, n),
		tables:  make([]*hashing.Table, n),
		dormant: make([]int32, n),
		boosted: make([]int32, n),
		best:    make([]int64, n),
		fam:     hashing.Family{Seed: p.Seed ^ 0xb5026f5aa96619e9},
	}

	// Ongoing roots start at level 1 with budget b₁; everything else
	// (non-roots, finished roots) stays at level 0 (§D.1).
	incident := make([]int32, n)
	s.arcs.MarkIncident(m, incident)
	ongoing := make([]bool, n)
	nOngoing := 0
	m.Step(n, func(v int) {
		if s.d.Parent[v] == int32(v) && incident[v] == 1 {
			ongoing[v] = true
		}
	})
	for v := 0; v < n; v++ {
		if ongoing[v] {
			nOngoing++
		}
	}
	if nOngoing > 0 {
		// Approximate compaction renames the ongoing vertices into a
		// dense id range so all later block allocations are O(1)-time
		// (Lemma D.3). The renamed ids feed only the allocator, so we
		// record the cost and the success of the mapping.
		cres := compaction.Compact(m, hashing.Family{Seed: p.Seed ^ 0x2545f4914f6cdd1d}, ongoing, false)
		res.CompactRounds = cres.Rounds
		if cres.Failed {
			res.Failed = true
		}
	}
	// Assumption 3.1 / Lemma D.3: the initial budget derives from the
	// ORIGINAL density m/n (the paper: max{m/n, log^c n}/log^2 n), not
	// from the post-PREPARE ongoing count - budgets must start small
	// and climb the ladder; the total initial allocation then stays
	// far below O(m) after PREPARE shrinks the root set.
	b1 := math.Max(float64(mEdges)/math.Max(float64(n), 1), p.MinBudget)
	s.budgets = newBudgetTable(b1, p.Growth, p.BudgetCapFactor, n)
	var initWords int64
	m.Step(n, func(v int) {
		if ongoing[v] {
			s.level[v] = 1
			s.budget[v] = s.budgets.at(1)
		}
	})
	for v := 0; v < n; v++ {
		if ongoing[v] {
			initWords += s.budget[v]
		}
	}
	m.Alloc(int(initWords))
	res.CumBlockWords += initWords
	if initWords > res.PeakBlockWords {
		res.PeakBlockWords = initWords
	}

	// ---- repeat { EXPAND-MAXLINK } ----
	maxRounds := p.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 8*ceilLog2(n) + 96
	}
	// As in the native engine: the event envelope is built only when a
	// sink is attached, decided once per run.
	emit := obs.Enabled()
	var roundStart time.Time
	for round := 1; nOngoing > 0; round++ {
		if err := ctx.Err(); err != nil {
			res.CtxErr = err
			res.Stats = m.Stats()
			return res
		}
		if round > maxRounds {
			res.Failed = true
			break
		}
		if emit {
			roundStart = time.Now()
		}
		done := s.round(round, &res)
		res.Rounds++
		mRounds.Inc()
		if emit {
			tr := res.Trace[len(res.Trace)-1]
			obs.Emit(obs.Event{Source: "simulated", Category: "engine",
				Name: "round", Status: obs.StatusOK,
				DurationMS: float64(time.Since(roundStart).Nanoseconds()) / 1e6,
				Measures: map[string]float64{
					"round":          float64(round),
					"roots":          float64(tr.Roots),
					"max_level":      float64(tr.MaxLevel),
					"parent_changes": float64(tr.ParentChanges),
				}})
		}
		if s.overBudget {
			res.Failed = true
			break
		}
		if done {
			break
		}
	}

	// ---- Theorem-1 postprocessing on the remaining graph ----
	s.d.Flatten(m)
	if p.SkipPostprocess {
		out := make([]int32, n)
		copy(out, s.d.Parent)
		res.Labels = out
		for v := 0; v < n; v++ {
			if s.level[v] > res.MaxLevel {
				res.MaxLevel = s.level[v]
			}
		}
		res.AddedEdges = s.added.Len() / 2
		res.Stats = m.Stats()
		return res
	}
	rem := s.remainingGraph()
	ccp := ccbase.DefaultParams(p.Seed ^ 0x94d049bb133111eb)
	ccp.MaxExpandRounds = 8 // diameter is O(1) here
	ccp.Ctx = p.Ctx
	ccr := ccbase.Run(m, rem, ccp)
	if ccr.CtxErr != nil {
		res.CtxErr = ccr.CtxErr
		res.Stats = m.Stats()
		return res
	}
	if ccr.Failed {
		res.Failed = true
	}
	res.PostPhases = ccr.Phases

	// Compose: label of v = Theorem-1 label of v's root.
	out := make([]int32, n)
	m.Step(n, func(v int) {
		out[v] = ccr.Labels[s.d.Parent[v]]
	})
	res.Labels = out
	for v := 0; v < n; v++ {
		if s.level[v] > res.MaxLevel {
			res.MaxLevel = s.level[v]
		}
	}
	res.AddedEdges = s.added.Len() / 2
	res.Stats = m.Stats()
	return res
}

// remainingGraph collects the current non-loop edges (original +
// added) into a plain graph for the Theorem-1 postprocessing stage.
func (s *state) remainingGraph() *graph.Graph {
	g := graph.New(s.n)
	add := func(st *labels.ArcStore) {
		for i := 0; i < st.Len(); i += 2 {
			u, v := st.U[i], st.V[i]
			if u != v {
				g.AddEdge(int(u), int(v))
			}
		}
	}
	add(s.arcs)
	add(s.added)
	return g
}

// round executes one EXPAND-MAXLINK (§3.1) and reports whether the
// break condition holds (diameter ≤ 1 and all trees flat).
func (s *state) round(round int, res *Result) bool {
	m, n := s.m, s.n
	tr := RoundTrace{}
	s.parChange = 0
	s.lvlChange = 0

	// Step (1): MAXLINK; ALTER.
	s.maxlink()
	s.alterAll()

	roots := 0
	tr.LevelHist = make(map[int32]int)
	tr.LevelUpsByLevel = make(map[int32]int)
	startLevel := make([]int32, n)
	copy(startLevel, s.level)
	for v := 0; v < n; v++ {
		if s.d.Parent[v] == int32(v) && s.level[v] >= 1 {
			roots++
			tr.LevelHist[s.level[v]]++
		}
	}
	tr.Roots = roots

	// Finished roots (no incident non-loop edge: their component is
	// fully computed, §D.1 "all other vertices are ignored") take no
	// further part in level increases.
	if s.incident == nil {
		s.incident = make([]int32, n)
	}
	s.arcs.MarkIncident(m, s.incident)
	s.added.MarkEnds(m, s.incident)

	// Step (2): random level boost for roots.
	pram.Fill32(s.boosted, 0)
	if !s.p.DisableBoost {
		coin := s.coin
		logn := math.Log(float64(n) + 2)
		m.Step(n, func(v int) {
			if s.level[v] < 1 || s.d.Parent[v] != int32(v) || s.incident[v] == 0 {
				return
			}
			if s.budget[v] >= s.budgets.cap {
				return // at maximal level L: the block already holds any component
			}
			prob := math.Min(s.p.BoostCap, s.p.BoostC*logn/math.Pow(float64(s.budget[v]), s.p.BoostExp))
			if coin.Bernoulli(uint64(round)*3+1, uint64(v), prob) {
				s.level[v]++
				s.boosted[v] = 1
				pram.Store64(&s.lvlChange, 1)
			}
		})
	}
	for v := 0; v < n; v++ {
		if s.boosted[v] == 1 {
			tr.LevelUpsBoost++
		}
	}

	// Step (3): per-root tables; hash equal-budget neighbour roots.
	h := s.fam.At(uint64(round))
	for v := 0; v < n; v++ {
		s.tables[v] = nil
	}
	m.Step(n, func(v int) {
		if s.d.Parent[v] == int32(v) && s.level[v] >= 1 {
			t := hashing.NewTable(h, tableSize(s.budget[v]))
			t.TryInsert(int32(v)) // v ∈ N(v)
			s.tables[v] = t
		}
	})
	insertRootNeighbors := func(st *labels.ArcStore) {
		u, w := st.U, st.V
		m.StepRange(st.Len(), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				a, b := u[i], w[i]
				if a == b {
					continue
				}
				ta := s.tables[a]
				if ta == nil || s.tables[b] == nil {
					continue // endpoint not a root
				}
				if s.budget[a] == s.budget[b] {
					ta.TryInsert(b)
				}
			}
		})
	}
	insertRootNeighbors(s.arcs)
	insertRootNeighbors(s.added)

	// Step (4): collision ⇒ dormant; dormant member ⇒ dormant.
	pram.Fill32(s.dormant, 0)
	checkCollisions := func(st *labels.ArcStore) {
		u, w := st.U, st.V
		m.StepRange(st.Len(), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				a, b := u[i], w[i]
				if a == b {
					continue
				}
				ta := s.tables[a]
				if ta == nil || s.tables[b] == nil || s.budget[a] != s.budget[b] {
					continue
				}
				if ta.Collides(b) {
					pram.Store32(&s.dormant[a], 1)
				}
			}
		})
	}
	checkCollisions(s.arcs)
	checkCollisions(s.added)
	m.Step(n, func(v int) {
		t := s.tables[v]
		if t == nil {
			return
		}
		if t.Collides(int32(v)) {
			pram.Store32(&s.dormant[v], 1)
		}
	})
	// Dormancy propagation ("if there is a dormant vertex in H(v)").
	m.Step(n, func(v int) {
		t := s.tables[v]
		if t == nil || pram.Load32(&s.dormant[v]) == 1 {
			return
		}
		for _, w := range t.Occupied() {
			if pram.Load32(&s.dormant[w]) == 1 {
				pram.Store32(&s.dormant[v], 1)
				return
			}
		}
	})

	// Step (5): one distance-doubling expansion into fresh tables,
	// keeping the old tables as sources (§3.1 "Hashing").
	old := s.tables
	newTables := make([]*hashing.Table, n)
	var totalBudget int64
	for v := 0; v < n; v++ {
		if old[v] != nil {
			totalBudget += s.budget[v]
		}
	}
	// Processor-budget guard: the machine owns Theta(m) processors; a
	// round demanding more than SpaceCap*m block words is the paper's
	// bad-probability event (the Lemma 3.10 union bound failed). Abort
	// the loop; the Theorem-1 stage still computes correct components.
	if float64(totalBudget) > s.p.SpaceCap*float64(s.arcs.Len()) {
		s.overBudget = true
		return true
	}
	var breakNewEntry int64
	m.StepN(int(totalBudget), n, func(v int) {
		ot := old[v]
		if ot == nil {
			return
		}
		nt := hashing.NewTable(h, ot.Size())
		for _, w := range ot.Occupied() {
			nt.TryInsert(w)
			if ow := old[w]; ow != nil {
				for _, u := range ow.Occupied() {
					if !ot.Contains(u) {
						pram.Store64(&breakNewEntry, 1) // break-condition (ii)
					}
					nt.TryInsert(u)
				}
			}
		}
		newTables[v] = nt
	})
	// Collision check on the new tables: every source value must
	// survive; otherwise v is dormant.
	m.StepN(int(totalBudget), n, func(v int) {
		ot, nt := old[v], newTables[v]
		if ot == nil || nt == nil {
			return
		}
		for _, w := range ot.Occupied() {
			if nt.Collides(w) {
				pram.Store32(&s.dormant[v], 1)
				return
			}
			if ow := old[w]; ow != nil {
				for _, u := range ow.Occupied() {
					if nt.Collides(u) {
						pram.Store32(&s.dormant[v], 1)
						return
					}
				}
			}
		}
	})
	s.tables = newTables

	// Materialize the added edges {v,w} for w ∈ H(v) (§2.2: "for each
	// w ∈ H(u) after the expansion, {u,w} is considered an added edge").
	before := s.added.Len()
	for v := 0; v < n; v++ {
		t := s.tables[v]
		if t == nil {
			continue
		}
		for _, w := range t.Occupied() {
			if w != int32(v) {
				s.added.Append(int32(v), w, -1)
				s.added.Append(w, int32(v), -1)
			}
		}
	}
	tr.NewAdded = (s.added.Len() - before) / 2

	// Step (6): MAXLINK; SHORTCUT; ALTER.
	s.maxlink()
	if s.d.Shortcut(m) != 0 {
		s.parChange = 1
	}
	s.alterAll()
	s.dedupAdded()

	// Step (7): dormant roots that did not boost increase level
	// (unless already at the maximal level L or finished).
	m.Step(n, func(v int) {
		if s.d.Parent[v] == int32(v) && s.level[v] >= 1 &&
			pram.Load32(&s.dormant[v]) == 1 && s.boosted[v] == 0 &&
			s.budget[v] < s.budgets.cap && s.incident[v] == 1 {
			s.level[v]++
			pram.Store64(&s.lvlChange, 1)
		}
	})
	for v := 0; v < n; v++ {
		if s.dormant[v] == 1 {
			tr.Dormant++
		}
		if s.dormant[v] == 1 && s.boosted[v] == 0 && s.d.Parent[v] == int32(v) && s.level[v] >= 1 {
			tr.LevelUpsDorm++
		}
	}

	// Step (8): (re)allocate blocks for roots whose level grew.
	var newWords int64
	m.Step(n, func(v int) {
		if s.d.Parent[v] != int32(v) || s.level[v] < 1 {
			return
		}
		want := s.budgets.at(s.level[v])
		if want > s.budget[v] {
			s.budget[v] = want
		}
	})
	for v := 0; v < n; v++ {
		if lvl := s.level[v]; lvl >= 1 && s.d.Parent[v] == int32(v) {
			if w := s.budgets.at(lvl); w == s.budget[v] && (s.boosted[v] == 1 || s.dormant[v] == 1) {
				newWords += w
			}
		}
	}
	m.Alloc(int(newWords))
	tr.BlockWords = newWords
	res.CumBlockWords += newWords
	if newWords > res.PeakBlockWords {
		res.PeakBlockWords = newWords
	}

	maxLevel := int32(0)
	for v := 0; v < n; v++ {
		if s.level[v] > maxLevel {
			maxLevel = s.level[v]
		}
		if s.level[v] > startLevel[v] {
			tr.LevelUpsByLevel[startLevel[v]]++
		}
	}
	tr.MaxLevel = maxLevel
	tr.ParentChanges = int(pram.Load64(&s.parChange))
	res.Trace = append(res.Trace, tr)

	if s.p.CheckInvariants && res.InvariantErr == nil {
		res.InvariantErr = s.checkInvariants()
	}

	// Break condition (§3.3): (i) no parent or level changed this
	// round, (ii) step (5) added nothing new to any table.
	return pram.Load64(&s.parChange) == 0 &&
		pram.Load64(&s.lvlChange) == 0 &&
		pram.Load64(&breakNewEntry) == 0
}

// alterAll applies ALTER to the original and added edge stores.
func (s *state) alterAll() {
	s.arcs.Alter(s.m, s.d)
	s.added.Alter(s.m, s.d)
}

// dedupAdded sorts and deduplicates the added-edge store, dropping
// loops, whenever it exceeds AddedCap·m arcs. Host-side bookkeeping:
// the paper's tables deduplicate by construction ("hashing naturally
// removes the duplicate neighbors").
func (s *state) dedupAdded() {
	limit := int(s.p.AddedCap * float64(s.arcs.Len()))
	if limit < 1024 {
		limit = 1024
	}
	if s.added.Len() <= limit {
		return
	}
	pairs := make([]uint64, 0, s.added.Len())
	for i := 0; i < s.added.Len(); i++ {
		u, v := s.added.U[i], s.added.V[i]
		if u == v {
			continue
		}
		pairs = append(pairs, uint64(uint32(u))<<32|uint64(uint32(v)))
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i] < pairs[j] })
	s.added.U = s.added.U[:0]
	s.added.V = s.added.V[:0]
	s.added.Orig = s.added.Orig[:0]
	var prev uint64 = math.MaxUint64
	for _, p := range pairs {
		if p == prev {
			continue
		}
		prev = p
		s.added.Append(int32(p>>32), int32(uint32(p)), -1)
	}
}

// checkInvariants verifies Lemma 3.2 after a round: the labeled
// digraph is acyclic and every non-root's level is strictly below its
// parent's level.
func (s *state) checkInvariants() error {
	if err := s.d.CheckAcyclic(); err != nil {
		return err
	}
	for v := 0; v < s.n; v++ {
		p := s.d.Parent[v]
		if p == int32(v) {
			continue
		}
		if s.level[v] >= s.level[p] {
			return fmt.Errorf("core: Lemma 3.2 violated: non-root %d has level %d >= parent %d's level %d",
				v, s.level[v], p, s.level[p])
		}
	}
	return nil
}

func ceilLog2(n int) int {
	l := 0
	for x := 1; x < n; x <<= 1 {
		l++
	}
	return l
}
