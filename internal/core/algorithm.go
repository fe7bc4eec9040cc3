package core

import (
	"context"
	"fmt"
	"math"
	"slices"
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

	level []int32 // ℓ(v)

	// The host frontier, both lists ascending. active holds the
	// vertices with level ≥ 1, fixed once COMPACT has run: levels never
	// drop and only level-≥1 roots gain levels. MAXLINK can move only
	// these (a level-0 vertex has no live arc and its parent is already
	// its best neighbour parent), and every endpoint of a live arc is
	// one of them. roots is the subset that are still roots, refreshed
	// once per round after step (1); a vertex never becomes a root
	// again. Each per-root step runs on roots and charges all n.
	active []int32
	roots  []int32
	// slot[v] is v's index in active (-1 off it). Every per-vertex
	// array below except incident is indexed by slot and sized to the
	// frontier, since only active vertices are ever read there.
	slot []int32

	budget  []int64 // b(v): size of the block currently owned by v
	budgets *budgetTable
	fam     hashing.Family

	// Per-round scratch. The per-root arrays are reset over the root
	// list and read only for this round's roots. tables and next are
	// the two table generations of step (5), swapped every round.
	tables     []*hashing.Table
	next       []*hashing.Table
	startLevel []int32
	dormant    []int32
	boosted    []int32
	incident   []int32 // by vertex: endpoint of a non-loop edge
	best       []int64
	parChange  int64
	lvlChange  int64
	overBudget bool
}

// newState builds the repeat loop's state on the digraph and arcs that
// PREPARE left. Every ongoing vertex becomes a level-1 root with budget
// b₁ in one PRAM step over all n vertices (everything else, non-roots
// and finished roots, stays at level 0, §D.1) and so joins the active
// frontier. incident is an n-sized scratch array the state takes over.
func newState(m *pram.Machine, p Params, vst *vanilla.State, ongoing []bool, incident []int32, b1 float64) *state {
	n := vst.D.N()
	slot := make([]int32, n)
	k := 0
	for v := range slot {
		slot[v] = -1
		if ongoing[v] {
			slot[v] = int32(k)
			k++
		}
	}
	s := &state{
		p:          p,
		n:          n,
		m:          m,
		coin:       pram.Coin{Seed: p.Seed ^ 0x51afd7ed558ccd25},
		d:          vst.D,
		arcs:       vst.Arcs,
		added:      &labels.ArcStore{},
		level:      make([]int32, n),
		active:     make([]int32, 0, k),
		slot:       slot,
		budget:     make([]int64, k),
		budgets:    newBudgetTable(b1, p.Growth, p.BudgetCapFactor, n),
		fam:        hashing.Family{Seed: p.Seed ^ 0xb5026f5aa96619e9},
		tables:     make([]*hashing.Table, k),
		next:       make([]*hashing.Table, k),
		startLevel: make([]int32, k),
		dormant:    make([]int32, k),
		boosted:    make([]int32, k),
		incident:   incident,
		best:       make([]int64, k),
	}
	m.Step(n, func(v int) {
		if ongoing[v] {
			s.level[v] = 1
			s.budget[slot[v]] = s.budgets.at(1)
		}
	})
	for v := 0; v < n; v++ {
		if ongoing[v] {
			s.active = append(s.active, int32(v))
		}
	}
	s.roots = slices.Clone(s.active)
	return s
}

// eachRoot runs one PRAM step that charges a processor per vertex
// while the host runs f on this round's roots only, in ascending
// order, handing it each root v and its slot i. Callers pass a body
// that is a no-op for every other vertex.
func (s *state) eachRoot(f func(v, i int32)) {
	roots, slot := s.roots, s.slot
	s.m.StepN(s.n, len(roots), func(lo, hi int) {
		for _, v := range roots[lo:hi] {
			f(v, slot[v])
		}
	})
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

	// Ongoing roots start at level 1 with budget b₁; everything else
	// (non-roots, finished roots) stays at level 0 (§D.1).
	incident := make([]int32, n)
	vst.Arcs.MarkIncident(m, incident)
	ongoing := make([]bool, n)
	nOngoing := 0
	m.Step(n, func(v int) {
		if vst.D.Parent[v] == int32(v) && incident[v] == 1 {
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
	s := newState(m, p, vst, ongoing, incident, b1)
	var initWords int64
	for _, b := range s.budget {
		initWords += b
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
		res.MaxLevel = s.maxLevel()
		res.AddedEdges = s.added.Procs() / 2
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
	res.MaxLevel = s.maxLevel()
	res.AddedEdges = s.added.Procs() / 2
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

	// Both table generations hold entries only for the previous
	// round's roots; clear them before the root list shrinks.
	for _, v := range s.roots {
		i := s.slot[v]
		s.tables[i] = nil
		s.next[i] = nil
	}

	// Step (1): MAXLINK; ALTER.
	s.maxlink()
	s.alterAll()

	// The roots with level ≥ 1 after step (1): every per-root step of
	// this round runs on this list.
	s.roots = slices.DeleteFunc(s.roots, func(v int32) bool { return s.d.Parent[v] != v })
	roots := s.roots
	tr.Roots = len(roots)
	tr.LevelHist = make(map[int32]int)
	tr.LevelUpsByLevel = make(map[int32]int)
	for _, v := range roots {
		i := s.slot[v]
		tr.LevelHist[s.level[v]]++
		s.startLevel[i] = s.level[v]
		s.boosted[i] = 0
		s.dormant[i] = 0
	}

	// Finished roots (no incident non-loop edge: their component is
	// fully computed, §D.1 "all other vertices are ignored") take no
	// further part in level increases. Only active vertices end live
	// arcs, so clearing them clears every mark that is read.
	for _, v := range s.active {
		s.incident[v] = 0
	}
	s.arcs.MarkEnds(m, s.incident)
	s.added.MarkEnds(m, s.incident)

	// Step (2): random level boost for roots.
	if !s.p.DisableBoost {
		coin := s.coin
		logn := math.Log(float64(n) + 2)
		s.eachRoot(func(v, i int32) {
			if s.incident[v] == 0 {
				return
			}
			if s.budget[i] >= s.budgets.cap {
				return // at maximal level L: the block already holds any component
			}
			prob := math.Min(s.p.BoostCap, s.p.BoostC*logn/math.Pow(float64(s.budget[i]), s.p.BoostExp))
			if coin.Bernoulli(uint64(round)*3+1, uint64(v), prob) {
				s.level[v]++
				s.boosted[i] = 1
				s.lvlChange = 1
			}
		})
	}
	for _, v := range roots {
		if s.boosted[s.slot[v]] == 1 {
			tr.LevelUpsBoost++
		}
	}

	// Step (3): per-root tables; hash equal-budget neighbour roots.
	// Here and in step (4) a loop arc does nothing, so the arc sweeps
	// run on the live arcs.
	h := s.fam.At(uint64(round))
	s.eachRoot(func(v, i int32) {
		t := hashing.NewTable(h, tableSize(s.budget[i]))
		t.TryInsert(v) // v ∈ N(v)
		s.tables[i] = t
	})
	slot := s.slot
	insertRootNeighbors := func(st *labels.ArcStore) {
		u, w := st.U, st.V
		m.StepN(st.Procs(), st.Len(), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				a, b := u[i], w[i]
				if a == b {
					continue
				}
				sa, sb := slot[a], slot[b]
				ta := s.tables[sa]
				if ta == nil || s.tables[sb] == nil {
					continue // endpoint not a root
				}
				if s.budget[sa] == s.budget[sb] {
					ta.TryInsert(b)
				}
			}
		})
	}
	insertRootNeighbors(s.arcs)
	insertRootNeighbors(s.added)

	// Step (4): collision ⇒ dormant; dormant member ⇒ dormant.
	checkCollisions := func(st *labels.ArcStore) {
		u, w := st.U, st.V
		m.StepN(st.Procs(), st.Len(), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				a, b := u[i], w[i]
				if a == b {
					continue
				}
				sa, sb := slot[a], slot[b]
				ta := s.tables[sa]
				if ta == nil || s.tables[sb] == nil || s.budget[sa] != s.budget[sb] {
					continue
				}
				if ta.Collides(b) {
					s.dormant[sa] = 1
				}
			}
		})
	}
	checkCollisions(s.arcs)
	checkCollisions(s.added)
	s.eachRoot(func(v, i int32) {
		if s.tables[i].Collides(v) {
			s.dormant[i] = 1
		}
	})
	// Dormancy propagation ("if there is a dormant vertex in H(v)").
	s.eachRoot(func(v, i int32) {
		if s.dormant[i] == 1 {
			return
		}
		for _, w := range s.tables[i].Occupied() {
			if s.dormant[slot[w]] == 1 {
				s.dormant[i] = 1
				return
			}
		}
	})

	// Step (5): one distance-doubling expansion into fresh tables,
	// keeping the old tables as sources (§3.1 "Hashing").
	old, next := s.tables, s.next
	var totalBudget int64
	for _, v := range roots {
		totalBudget += s.budget[slot[v]]
	}
	// Processor-budget guard: the machine owns Theta(m) processors; a
	// round demanding more than SpaceCap*m block words is the paper's
	// bad-probability event (the Lemma 3.10 union bound failed). Abort
	// the loop; the Theorem-1 stage still computes correct components.
	if float64(totalBudget) > s.p.SpaceCap*float64(s.arcs.Procs()) {
		s.overBudget = true
		return true
	}
	// One processor per block word; the host iterates per root.
	var breakNewEntry int64
	m.StepN(int(totalBudget), len(roots), func(lo, hi int) {
		for _, v := range roots[lo:hi] {
			ot := old[slot[v]]
			nt := hashing.NewTable(h, ot.Size())
			for _, w := range ot.Occupied() {
				nt.TryInsert(w)
				if ow := old[slot[w]]; ow != nil {
					for _, u := range ow.Occupied() {
						if !ot.Contains(u) {
							breakNewEntry = 1 // break-condition (ii)
						}
						nt.TryInsert(u)
					}
				}
			}
			next[slot[v]] = nt
		}
	})
	// Collision check on the new tables: every source value must
	// survive; otherwise v is dormant.
	lost := func(i int32) bool {
		nt := next[i]
		for _, w := range old[i].Occupied() {
			if nt.Collides(w) {
				return true
			}
			if ow := old[slot[w]]; ow != nil {
				for _, u := range ow.Occupied() {
					if nt.Collides(u) {
						return true
					}
				}
			}
		}
		return false
	}
	m.StepN(int(totalBudget), len(roots), func(lo, hi int) {
		for _, v := range roots[lo:hi] {
			if i := slot[v]; lost(i) {
				s.dormant[i] = 1
			}
		}
	})
	s.tables, s.next = next, old

	// Materialize the added edges {v,w} for w ∈ H(v) (§2.2: "for each
	// w ∈ H(u) after the expansion, {u,w} is considered an added edge").
	before := s.added.Len()
	for _, v := range roots {
		for _, w := range s.tables[slot[v]].Occupied() {
			if w != v {
				s.added.Append(v, w, -1)
				s.added.Append(w, v, -1)
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
	// (unless already at the maximal level L or finished). Step (6)
	// may have linked some of this round's roots, so the body checks.
	s.eachRoot(func(v, i int32) {
		if s.d.Parent[v] == v && s.dormant[i] == 1 && s.boosted[i] == 0 &&
			s.budget[i] < s.budgets.cap && s.incident[v] == 1 {
			s.level[v]++
			s.lvlChange = 1
		}
	})
	for _, v := range roots {
		if i := slot[v]; s.dormant[i] == 1 {
			tr.Dormant++
			if s.boosted[i] == 0 && s.d.Parent[v] == v {
				tr.LevelUpsDorm++
			}
		}
	}

	// Step (8): (re)allocate blocks for roots whose level grew.
	var newWords int64
	s.eachRoot(func(v, i int32) {
		if s.d.Parent[v] != v {
			return
		}
		want := s.budgets.at(s.level[v])
		if want > s.budget[i] {
			s.budget[i] = want
		}
	})
	for _, v := range roots {
		if i := slot[v]; s.d.Parent[v] == v {
			if w := s.budgets.at(s.level[v]); w == s.budget[i] && (s.boosted[i] == 1 || s.dormant[i] == 1) {
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

	for _, v := range roots {
		if l := s.startLevel[slot[v]]; s.level[v] > l {
			tr.LevelUpsByLevel[l]++
		}
	}
	tr.MaxLevel = s.maxLevel()
	tr.ParentChanges = int(s.parChange)
	res.Trace = append(res.Trace, tr)

	if s.p.CheckInvariants && res.InvariantErr == nil {
		res.InvariantErr = s.checkInvariants()
	}

	// Break condition (§3.3): (i) no parent or level changed this
	// round, (ii) step (5) added nothing new to any table.
	return s.parChange == 0 &&
		s.lvlChange == 0 &&
		breakNewEntry == 0
}

// maxLevel returns the largest level; level-0 vertices are off the
// active list and never raise it.
func (s *state) maxLevel() int32 {
	var mx int32
	for _, v := range s.active {
		mx = max(mx, s.level[v])
	}
	return mx
}

// alterAll applies ALTER to the original and added edge stores.
func (s *state) alterAll() {
	s.arcs.Alter(s.m, s.d)
	s.added.Alter(s.m, s.d)
}

// dedupAdded rebuilds the added-edge store with each distinct edge once,
// as an adjacent (u,v),(v,u) pair, whenever the store has held more
// than AddedCap·m arcs. Host-side bookkeeping: the paper's tables
// deduplicate by construction ("hashing naturally removes the duplicate
// neighbors"). The pairing is what remainingGraph's pair walk and the
// store's loop dropping rely on.
func (s *state) dedupAdded() {
	limit := int(s.p.AddedCap * float64(s.arcs.Procs()))
	if limit < 1024 {
		limit = 1024
	}
	if s.added.Procs() <= limit {
		return
	}
	edges := make([]uint64, 0, s.added.Len())
	for i := 0; i < s.added.Len(); i++ {
		u, v := s.added.U[i], s.added.V[i]
		if u > v {
			u, v = v, u
		}
		if u != v {
			edges = append(edges, uint64(uint32(u))<<32|uint64(uint32(v)))
		}
	}
	slices.Sort(edges)
	edges = slices.Compact(edges)
	s.added = &labels.ArcStore{}
	for _, e := range edges {
		u, v := int32(e>>32), int32(uint32(e))
		s.added.Append(u, v, -1)
		s.added.Append(v, u, -1)
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
	// The host frontier: every endpoint of a live arc is active.
	for _, st := range []*labels.ArcStore{s.arcs, s.added} {
		for i := range st.U {
			if u, w := st.U[i], st.V[i]; u != w && (s.level[u] < 1 || s.level[w] < 1) {
				return fmt.Errorf("core: live arc (%d,%d) has a level-0 endpoint", u, w)
			}
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
