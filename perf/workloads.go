package main

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	pramcc "repro"
	"repro/graph"
	"repro/internal/check"
	"repro/internal/durable"
	"repro/internal/shard"
)

// sizes fixes every input size and rate of the four workloads.
type sizes struct {
	solveN, solveM int // solve-native Gnm graph
	simN           int // simulate-paper path length

	streamN, streamM, streamSpan int // stream-ingest Gnm graph, edges per span
	queryRate                    int // stream-ingest reader queries per second

	tenants, serveN, serveM, serveSpan int        // serve-durable per-tenant Gnm graphs
	rates                              [3]float64 // serve-durable lo, mid, hi spans per second
	bursts                             [3]int     // spans sent to one tenant at once, per step
}

// fullSize is the benchmark proper; perf_test.go runs a toy size.
//
// serve-durable sends single spans at lo and mid, so the shard queue
// never holds two neighbouring spans of one tenant and coalescing stays
// idle, and bursts of 4 at hi, so it engages there. The burst size is a
// synthetic choice, not taken from a client trace.
var fullSize = sizes{
	solveN: 500_000, solveM: 5_000_000,
	simN:    1 << 16,
	streamN: 500_000, streamM: 5_000_000, streamSpan: 10_000,
	queryRate: 10_000,
	tenants:   8, serveN: 200_000, serveM: 1_500_000, serveSpan: 1000,
	rates:  [3]float64{250, 500, 1000},
	bursts: [3]int{1, 1, 4},
}

var stepNames = [3]string{"lo", "mid", "hi"}

// setupRepeats is how many times a run builds its system from scratch;
// setup_s is the median.
const setupRepeats = 11

// params is one workload run.
type params struct {
	seed    int64
	seconds float64 // per measured pass
	trace   bool    // add a traced pass after the untraced one
	workers int     // engine workers and router shards
	dir     string  // inputs and durable state
	out     string  // where the traced pass writes its spans; "" skips it
	size    sizes
	beyond  int // samples required past a reported percentile
}

// outcome is what a workload run that passed every oracle check
// reports: the end-to-end metrics of its untraced pass and, in trace
// mode, the per-layer metrics.
type outcome struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// workload is one benchmark workload; BENCHMARK.json and
// perf/README.md say why each exists.
type workload struct {
	name    string
	prepare func(p *params) error // writes the generated inputs to p.dir
	run     func(p *params) (*outcome, error)
}

var workloads = []workload{
	{"solve-native", prepareSolveNative, runSolveNative},
	{"simulate-paper", prepareSimulatePaper, runSimulatePaper},
	{"stream-ingest", prepareStreamIngest, runStreamIngest},
	{"serve-durable", prepareServeDurable, runServeDurable},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---- inputs ----

// writeGraph writes g in the binary format and syncs it, so the
// workload's own fsyncs never wait on writing back its inputs.
func writeGraph(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.WriteBinary(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadGraph reads a prepared input and reports how long graph.ReadAuto
// took.
func loadGraph(path string) (*graph.Graph, float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	t := time.Now()
	g, err := graph.ReadAuto(f)
	if err != nil {
		return nil, 0, fmt.Errorf("load %s: %w", path, err)
	}
	return g, time.Since(t).Seconds(), nil
}

func graphPath(p *params) string { return filepath.Join(p.dir, "graph.bin") }

func tenantPath(p *params, i int) string {
	return filepath.Join(p.dir, fmt.Sprintf("tenant-%d.bin", i))
}

func prepareSolveNative(p *params) error {
	return writeGraph(graphPath(p), graph.Gnm(p.size.solveN, p.size.solveM, p.seed))
}

func prepareSimulatePaper(p *params) error {
	return writeGraph(graphPath(p), graph.Permuted(graph.Path(p.size.simN), p.seed))
}

func prepareStreamIngest(p *params) error {
	return writeGraph(graphPath(p), graph.Gnm(p.size.streamN, p.size.streamM, p.seed))
}

func prepareServeDurable(p *params) error {
	for i := 0; i < p.size.tenants; i++ {
		if err := writeGraph(tenantPath(p, i), graph.Gnm(p.size.serveN, p.size.serveM, p.seed+int64(i))); err != nil {
			return err
		}
	}
	return nil
}

// ---- shared pieces ----

// closedLoop runs op back to back until seconds have passed and at
// least n ops completed. op times itself, so it can do untimed
// verification after the timed call. Every op starts after a forced,
// untimed GC, so no op inherits another's garbage: the heap peak then
// repeats from run to run instead of depending on where a collection
// happened to fall.
func closedLoop(seconds float64, n int, op func() (time.Duration, error)) ([]float64, error) {
	var lat []float64
	start := time.Now()
	for len(lat) < n || time.Since(start).Seconds() < seconds {
		runtime.GC()
		d, err := op()
		if err != nil {
			return lat, err
		}
		lat = append(lat, ms(d))
	}
	return lat, nil
}

// partitionHash hashes a labeling up to renaming of its labels: each
// label is replaced by the order of its first appearance. seen must
// have room for every label value.
func partitionHash(labels []int32, seen []int32) uint64 {
	clear(seen)
	h, next := uint64(14695981039346656037), int32(0)
	for _, l := range labels {
		c := seen[l]
		if c == 0 {
			next++
			c, seen[l] = next, next
		}
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

func errMismatch(format string, a ...any) error {
	return fmt.Errorf("correctness: "+format, a...)
}

// layerTimes decomposes traced ops into the self times of the layers
// they pass through, in the order given. The layers of one op tile it:
// each is a span minus the children it covers, and the outermost is the
// op minus its child, so they add up to the traced op exactly. How far
// the traced op lies from the untraced one is trace.overhead_pct.
type layerTimes struct {
	names []string
	rows  [][]float64 // per op: its total, then one self time per layer
}

func newLayerTimes(names ...string) *layerTimes { return &layerTimes{names: names} }

func (l *layerTimes) add(total float64, self ...float64) {
	l.rows = append(l.rows, append([]float64{total}, self...))
}

// report writes each layer's self time in the median op: the mean over
// the ops ranked within 2.5% of the middle by total.
func (l *layerTimes) report(m map[string]float64) error {
	if len(l.rows) == 0 {
		return fmt.Errorf("trace: no %s spans recorded", strings.Join(l.names, ", "))
	}
	slices.SortFunc(l.rows, func(a, b []float64) int { return cmp.Compare(a[0], b[0]) })
	lo := len(l.rows) * 475 / 1000
	hi := max(len(l.rows)*525/1000, lo+1)
	band := l.rows[lo:hi]
	for i, n := range l.names {
		m[n] = 0
		for _, r := range band {
			m[n] += r[i+1] / float64(len(band))
		}
	}
	return nil
}

// overheadPct is the traced op p50 against the untraced one, in percent.
func overheadPct(traced, untraced []float64) float64 {
	u := median(untraced)
	return ratio(median(traced)-u, u) * 100
}

func writeTrace(p *params, name string, rec *recorder) error {
	if p.out == "" {
		return nil
	}
	if err := os.MkdirAll(p.out, 0o755); err != nil {
		return err
	}
	return rec.writeJSONL(filepath.Join(p.out, fmt.Sprintf("trace-%s-seed%d.jsonl", name, p.seed)))
}

// ---- solve-native and simulate-paper ----

func runSolveNative(p *params) (*outcome, error) {
	return runSolve(p, "solve-native", "native.round", false, func(int) []pramcc.Option {
		return []pramcc.Option{pramcc.WithBackend(pramcc.BackendNative), pramcc.WithWorkers(p.workers)}
	})
}

// simulate-paper gives every solve an algorithm seed of its own. One
// seed's random choices fix its round count (5 to 8 on the same path),
// so a run over a few seeds would measure their luck; a fresh seed per
// solve samples the same distribution in every run.
func runSimulatePaper(p *params) (*outcome, error) {
	return runSolve(p, "simulate-paper", "simulated.round", true, func(i int) []pramcc.Option {
		return []pramcc.Option{pramcc.WithSeed(uint64(p.seed)<<32 | uint64(i)), pramcc.WithWorkers(p.workers)}
	})
}

// runSolve is the closed loop of one caller solving one graph again and
// again. Without reseed every solve goes to one long-lived Solver built
// with opts(0); with reseed solve i gets a Solver of its own built with
// opts(i), made and closed outside the timed call.
func runSolve(p *params, name, roundEvent string, reseed bool, opts func(i int) []pramcc.Option) (*outcome, error) {
	ctx := context.Background()
	var (
		g             *graph.Graph
		solver        *pramcc.Solver
		setups, loads []float64
		load          float64
		err           error
	)
	defer func() {
		if solver != nil {
			solver.Close()
		}
	}()
	for i := 0; i < setupRepeats; i++ {
		if solver != nil {
			solver.Close()
		}
		g, solver = nil, nil
		runtime.GC() // each set-up starts from the same heap
		t := time.Now()
		if g, load, err = loadGraph(graphPath(p)); err != nil {
			return nil, err
		}
		if solver, err = pramcc.NewSolver(opts(0)...); err != nil {
			return nil, err
		}
		if _, err = solver.Solve(ctx, g); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		loads = append(loads, load)
	}
	res, err := solver.Solve(ctx, g)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	if err := check.Components(g, res.Labels); err != nil {
		return nil, errMismatch("%s labels disagree with the BFS oracle: %v", name, err)
	}
	seen := make([]int32, g.N)
	want := partitionHash(res.Labels, seen)

	o := &outcome{Metrics: map[string]float64{}}
	var stats []pramcc.Stats
	pass := func(rec *recorder) ([]float64, error) {
		stats = stats[:0]
		return closedLoop(p.seconds, need(0.9, p.beyond), func() (time.Duration, error) {
			s := solver
			if reseed {
				var err error
				if s, err = pramcc.NewSolver(opts(o.Attempted)...); err != nil {
					return 0, err
				}
				defer s.Close()
			}
			o.Attempted++
			id := 0
			if rec != nil {
				id = rec.begin("solve", "")
			}
			t := time.Now()
			r, err := s.Solve(ctx, g)
			d := time.Since(t)
			if rec != nil {
				rec.end(id, nil)
			}
			if err != nil {
				return d, err
			}
			if partitionHash(r.Labels, seen) != want {
				return d, errMismatch("%s solve %d returned a different partition", name, len(stats))
			}
			stats = append(stats, r.Stats)
			return d, nil
		})
	}

	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	c0 := readCounters()
	lat, err := pass(nil)
	if err != nil {
		return nil, err
	}
	d := c0.to(readCounters())
	m := o.Metrics
	if m["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return nil, err
	}
	m["setup_s"] = median(setups)
	if m["op_p50_ms"], err = percentile(lat, 0.5, p.beyond); err != nil {
		return nil, err
	}
	if m["op_p90_ms"], err = percentile(lat, 0.9, p.beyond); err != nil {
		return nil, err
	}
	m["edges_per_s"] = float64(g.NumEdges()*len(lat)) / (sum(lat) / 1000)
	m["ok_ratio"] = 1 - ratio(float64(o.Failed), float64(o.Attempted))
	if !p.trace {
		return o, nil
	}

	m["graph.load_s"] = median(loads)
	runtimeLayers(d, len(lat), m)
	var rounds, steps, work []float64
	for _, st := range stats {
		rounds = append(rounds, float64(st.Rounds))
		steps = append(steps, float64(st.PRAMSteps))
		work = append(work, float64(st.Work))
	}
	if roundEvent == "native.round" {
		m["native.rounds_per_solve"] = median(rounds)
	} else {
		m["sim.rounds.min"], m["sim.rounds.max"] = slices.Min(rounds), slices.Max(rounds)
		m["sim.pram_steps.min"], m["sim.pram_steps.max"] = slices.Min(steps), slices.Max(steps)
		m["sim.work.min"], m["sim.work.max"] = slices.Min(work), slices.Max(work)
	}

	rec := newRecorder()
	pramcc.SetEventSink(rec)
	tlat, err := pass(rec)
	pramcc.SetEventSink(nil)
	if err != nil {
		return nil, err
	}
	spans, kids := rec.snapshot()
	roundsLayer, selfLayer := "sim.round_ms", "sim.post_ms"
	if roundEvent == "native.round" {
		roundsLayer, selfLayer = "native.rounds_ms", "solver.self_ms"
	}
	lt := newLayerTimes(roundsLayer, selfLayer)
	var first, last []float64
	for i := range spans {
		op := &spans[i]
		if op.Name != "solve" {
			continue
		}
		var ivs []interval
		var total float64
		var lastRound *span
		for _, kid := range kids[op.ID] {
			c := &spans[kid-1]
			if c.Name != roundEvent {
				continue
			}
			ivs = append(ivs, c.iv())
			total += c.dur()
			if c.Measures["round"] == 1 {
				first = append(first, c.dur())
			}
			if lastRound == nil || c.Measures["round"] > lastRound.Measures["round"] {
				lastRound = c
			}
		}
		if lastRound == nil {
			return nil, fmt.Errorf("trace: solve span %d has no %s events", op.ID, roundEvent)
		}
		last = append(last, lastRound.dur())
		lt.add(op.dur(), total, float64(selfTime(op.iv(), ivs))/1e6)
	}
	if err := lt.report(m); err != nil {
		return nil, err
	}
	if roundEvent == "native.round" {
		m["native.round1_ms"], m["native.verify_round_ms"] = median(first), median(last)
	}
	m["trace.overhead_pct"] = overheadPct(tlat, lat)
	return o, writeTrace(p, name, rec)
}

// ---- stream-ingest ----

func runStreamIngest(p *params) (*outcome, error) {
	ctx := context.Background()
	opts := []pramcc.Option{pramcc.WithBackend(pramcc.BackendIncremental), pramcc.WithWorkers(p.workers)}
	var (
		g             *graph.Graph
		spans         []graph.EdgeSpan
		setups, loads []float64
		load          float64
		err           error
	)
	for i := 0; i < setupRepeats; i++ {
		g, spans = nil, nil
		runtime.GC()
		t := time.Now()
		if g, load, err = loadGraph(graphPath(p)); err != nil {
			return nil, err
		}
		spans = g.SpanBatches(g.NumEdges() / p.size.streamSpan)
		sv, err := pramcc.NewService(g.N, opts...)
		if err != nil {
			return nil, err
		}
		_, err = sv.IngestSpan(ctx, spans[0])
		sv.Close()
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		loads = append(loads, load)
	}
	want, err := nativeLabels(g, p.workers)
	if err != nil {
		return nil, err
	}

	o := &outcome{Metrics: map[string]float64{}}
	type passResult struct {
		lat, queryUS, lateMS []float64
		edges                int
		wall                 float64
	}
	pass := func(rec *recorder) (*passResult, error) {
		pr := &passResult{}
		var cur atomic.Pointer[pramcc.Service]
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			pr.queryUS, pr.lateMS = reader(cur.Load, g.N, p.size.queryRate, p.seed, stop)
		}()
		defer func() {
			close(stop)
			wg.Wait()
		}()
		start := time.Now()
		for len(pr.lat) < need(0.99, p.beyond) || time.Since(start).Seconds() < p.seconds {
			sv, err := pramcc.NewService(g.N, opts...)
			if err != nil {
				return nil, err
			}
			cur.Store(sv)
			replay := time.Now()
			for _, sp := range spans {
				o.Attempted++
				id := 0
				if rec != nil {
					id = rec.begin("ingest", "")
				}
				t := time.Now()
				_, err := sv.IngestSpan(ctx, sp)
				d := time.Since(t)
				if rec != nil {
					rec.end(id, nil)
				}
				if err != nil {
					sv.Close()
					return nil, err
				}
				pr.lat = append(pr.lat, ms(d))
				pr.edges += sp.Len()
			}
			pr.wall += time.Since(replay).Seconds()
			got := sv.Snapshot().Labels
			sv.Close()
			if !slices.Equal(got, want) {
				return nil, errMismatch("stream-ingest final snapshot differs from native labels")
			}
		}
		return pr, nil
	}

	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	c0 := readCounters()
	pr, err := pass(nil)
	if err != nil {
		return nil, err
	}
	d := c0.to(readCounters())
	m := o.Metrics
	if m["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return nil, err
	}
	m["setup_s"] = median(setups)
	if m["op_p50_ms"], err = percentile(pr.lat, 0.5, p.beyond); err != nil {
		return nil, err
	}
	if m["op_p90_ms"], err = percentile(pr.lat, 0.9, p.beyond); err != nil {
		return nil, err
	}
	m["edges_per_s"] = float64(pr.edges) / pr.wall
	m["ok_ratio"] = 1 - ratio(float64(o.Failed), float64(o.Attempted))
	if !p.trace {
		return o, nil
	}

	m["graph.load_s"] = median(loads)
	runtimeLayers(d, len(pr.lat), m)
	if m["ingest_p99_ms"], err = percentile(pr.lat, 0.99, p.beyond); err != nil {
		return nil, err
	}
	if m["query_p99_us"], err = percentile(pr.queryUS, 0.99, p.beyond); err != nil {
		return nil, fmt.Errorf("query latency: %w", err)
	}
	m["loadgen.late_ms"], m["loadgen.late_max_ms"] = median(pr.lateMS), slices.Max(pr.lateMS)

	rec := newRecorder()
	pramcc.SetEventSink(rec)
	tr, err := pass(rec)
	pramcc.SetEventSink(nil)
	if err != nil {
		return nil, err
	}
	all, kids := rec.snapshot()
	lt := newLayerTimes("incremental.union_ms", "incremental.publish_ms", "service.self_ms")
	for i := range all {
		op := &all[i]
		if op.Name != "ingest" {
			continue
		}
		var svc, batch *span
		for _, kid := range kids[op.ID] {
			switch c := &all[kid-1]; c.Name {
			case "service.ingest_span":
				svc = c
			case "incremental.batch":
				batch = c
			}
		}
		if svc == nil || batch == nil {
			return nil, fmt.Errorf("trace: ingest span %d lacks its service or engine event", op.ID)
		}
		rec.reparent(batch.ID, svc.ID)
		lt.add(op.dur(), batch.dur(),
			float64(selfTime(svc.iv(), []interval{batch.iv()}))/1e6,
			float64(selfTime(op.iv(), []interval{svc.iv()}))/1e6)
	}
	if err := lt.report(m); err != nil {
		return nil, err
	}
	m["trace.overhead_pct"] = overheadPct(tr.lat, pr.lat)
	return o, writeTrace(p, "stream-ingest", rec)
}

// nativeLabels solves g on a Solver of its own, which is dropped
// afterwards rather than cached for the rest of the process.
func nativeLabels(g *graph.Graph, workers int) ([]int32, error) {
	s, err := pramcc.NewSolver(pramcc.WithBackend(pramcc.BackendNative), pramcc.WithWorkers(workers))
	if err != nil {
		return nil, err
	}
	defer s.Close()
	res, err := s.Solve(context.Background(), g)
	if err != nil {
		return nil, err
	}
	return slices.Clone(res.Labels), nil
}

// reader queries the service current returns at rate queries per second in
// 1 ms ticks until stop closes, timing each query from its tick's due
// time. It returns query latencies (µs) and how late each tick began
// (ms).
func reader(current func() *pramcc.Service, n, rate int, seed int64, stop <-chan struct{}) (latUS, lateMS []float64) {
	rng := rand.New(rand.NewSource(seed))
	perTick := max(rate/1000, 1)
	start := time.Now()
	for tick := 0; ; tick++ {
		due := start.Add(time.Duration(tick) * time.Millisecond)
		if d := time.Until(due); d > 0 {
			select {
			case <-stop:
				return latUS, lateMS
			case <-time.After(d):
			}
		}
		select {
		case <-stop:
			return latUS, lateMS
		default:
		}
		sv := current()
		if sv == nil {
			continue
		}
		lateMS = append(lateMS, ms(time.Since(due)))
		for i := 0; i < perTick; i++ {
			sv.SameComponent(rng.Intn(n), rng.Intn(n))
			latUS = append(latUS, float64(time.Since(due))/1e3)
		}
	}
}

// ---- serve-durable ----

// tenantAPI is what the load generator needs from a tenant; both the
// public pramcc.Tenant and the traced router's shard.Tenant have it.
type tenantAPI interface {
	IngestSpan(ctx context.Context, sp graph.EdgeSpan) (int, error)
	Queued() int
	LabelsInto(dst []int32) []int32
}

// sent is one open-loop request of serve-durable.
type sent struct {
	request
	tenant, span int
	err          error
}

// sendStep drives one fixed-rate step. Requests go out in bursts of
// burst spans to one tenant, due together, with the tenants taken
// round-robin: request j is due at (j/burst)·burst/rate after the step
// starts and carries tenant (j/burst) mod tenants' next span. With a
// burst of 1, neighbouring requests belong to different tenants and are
// never coalesced; the later spans of a longer burst queue behind its
// first and are. Every request runs on its own goroutine, so a slow
// system never slows the schedule. The queued-span total is sampled
// every millisecond while the step sends.
func sendStep(tenants []tenantAPI, spans [][]graph.EdgeSpan, next []int, rate, seconds float64, burst, beyond int) ([]sent, step) {
	n := max(int(rate*seconds+0.5), need(0.99, beyond))
	out := make([]sent, n)
	st := step{rate: rate}
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tk := time.NewTicker(time.Millisecond)
		defer tk.Stop()
		for {
			q := 0
			for _, t := range tenants {
				q += t.Queued()
			}
			st.depth = append(st.depth, q)
			select {
			case <-stop:
				return
			case <-tk.C:
			}
		}
	}()
	var wg sync.WaitGroup
	start := time.Now()
	for j := range out {
		due := start.Add(time.Duration(float64(j/burst*burst) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ti := (j / burst) % len(tenants)
		si := next[ti] % len(spans[ti])
		next[ti]++
		out[j].due, out[j].tenant, out[j].span = due, ti, si
		wg.Add(1)
		go func(r *sent, t tenantAPI, sp graph.EdgeSpan) {
			defer wg.Done()
			r.sent = time.Now()
			_, r.err = t.IngestSpan(context.Background(), sp)
			r.done = time.Now()
		}(&out[j], tenants[ti], spans[ti][si])
	}
	close(stop)
	sampler.Wait()
	wg.Wait()
	for _, r := range out {
		if r.err != nil {
			st.refused++
			continue
		}
		st.latMS = append(st.latMS, ms(r.latency()))
	}
	return out, st
}

// serveRun is one pass of serve-durable's three steps over one router.
type serveRun struct {
	reqs    [][]sent // per step
	steps   []step
	starts  []time.Time
	walls   []float64 // step start to last acknowledgement, seconds
	batches []float64 // engine batches per step, from the shard metrics
	counted delta     // counter growth over all steps
}

func tenantOpts() []pramcc.Option {
	return []pramcc.Option{pramcc.WithWorkers(1), pramcc.WithCheckpointEvery(64)}
}

func tenantID(i int) string { return fmt.Sprintf("t%d", i) }

func runServeDurable(p *params) (*outcome, error) {
	ctx := context.Background()
	cfg := func(dir string) pramcc.RouterConfig {
		return pramcc.RouterConfig{Shards: p.workers, DataDir: dir, Options: tenantOpts()}
	}
	var (
		r             *pramcc.Router
		tenants       []tenantAPI
		graphs        []*graph.Graph
		spans         [][]graph.EdgeSpan
		setups, loads []float64
		dataDir       string
	)
	for i := 0; i < setupRepeats; i++ {
		if r != nil {
			r.Close()
			if err := os.RemoveAll(dataDir); err != nil {
				return nil, err
			}
		}
		r, tenants, graphs, spans = nil, nil, nil, nil
		runtime.GC()
		dataDir = filepath.Join(p.dir, fmt.Sprintf("data-%d", i))
		t := time.Now()
		var (
			load float64
			err  error
		)
		if graphs, spans, load, err = loadTenantGraphs(p); err != nil {
			return nil, err
		}
		if r, err = pramcc.NewRouter(cfg(dataDir)); err != nil {
			return nil, err
		}
		for ti, g := range graphs {
			tn, err := r.CreateTenant(tenantID(ti), g.N)
			if err == nil {
				_, err = tn.IngestSpan(ctx, spans[ti][0])
			}
			if err != nil {
				r.Close()
				return nil, err
			}
			tenants = append(tenants, tn)
		}
		setups = append(setups, time.Since(t).Seconds())
		loads = append(loads, load)
	}

	o := &outcome{Metrics: map[string]float64{}}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	run, err := serveSteps(p, o, tenants, spans)
	var peakMB float64
	if err == nil {
		peakMB, err = peakRSSMB()
	}
	if err == nil {
		runtime.GC()
		err = verifyTenants(tenants, graphs, spans, run.reqs)
	}
	before := make([][]int32, len(tenants))
	for i, t := range tenants {
		before[i] = t.LabelsInto(nil)
	}
	r.Close()
	if err != nil {
		return nil, err
	}
	t := time.Now()
	if r, err = pramcc.NewRouter(cfg(dataDir)); err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	recoverS := time.Since(t).Seconds()
	err = verifyRecovered(r, before)
	r.Close()
	if err != nil {
		return nil, err
	}

	m := o.Metrics
	m["setup_s"] = median(setups)
	m["peak_rss_mb"] = peakMB
	mid := run.steps[1]
	if m["op_p50_ms"], err = percentile(mid.latMS, 0.5, p.beyond); err != nil {
		return nil, err
	}
	if m["op_p90_ms"], err = percentile(mid.latMS, 0.9, p.beyond); err != nil {
		return nil, err
	}
	ackedSpans, ackedEdges := 0, 0
	for _, reqs := range run.reqs {
		for _, q := range reqs {
			if q.err == nil {
				ackedSpans++
				ackedEdges += spans[q.tenant][q.span].Len()
			}
		}
	}
	m["edges_per_s"] = float64(ackedEdges) / sum(run.walls)
	m["ok_ratio"] = 1 - ratio(float64(o.Failed), float64(o.Attempted))
	if !p.trace {
		return o, nil
	}

	m["graph.load_s"] = median(loads)
	runtimeLayers(run.counted, ackedSpans, m)
	for i, s := range run.steps {
		name := "ingest_p99_ms." + stepNames[i]
		if i == 1 {
			name = "ingest_p99_ms"
		}
		if m[name], err = percentile(s.latMS, 0.99, p.beyond); err != nil {
			return nil, fmt.Errorf("%s step: %w", stepNames[i], err)
		}
	}
	m["slo_rate_per_s"] = sloRate(run.steps, p.beyond)
	m["recover_s"] = recoverS
	for _, i := range []int{0, 2} {
		m["shard.spans_per_batch."+stepNames[i]] = ratio(float64(len(run.steps[i].latMS)), run.batches[i])
	}
	depthMax, refused := 0, 0
	for _, s := range run.steps {
		depthMax = max(depthMax, slices.Max(s.depth))
		refused += s.refused
	}
	m["shard.queue_depth_max"] = float64(depthMax)
	m["shard.refused"] = float64(refused)
	m["durable.fsyncs_per_span"] = ratio(run.counted.obs["pramcc_wal_appends_total"], float64(ackedSpans))
	m["durable.wal_bytes_per_edge"] = ratio(run.counted.obs["pramcc_wal_append_bytes_total"], float64(ackedEdges))
	m["durable.checkpoints"] = run.counted.obs["pramcc_checkpoints_total"]
	if err := traceServe(p, o, graphs, spans, run); err != nil {
		return nil, err
	}
	return o, nil
}

// loadTenantGraphs loads every tenant's prepared graph and cuts it into
// spans, reporting the total load time.
func loadTenantGraphs(p *params) ([]*graph.Graph, [][]graph.EdgeSpan, float64, error) {
	graphs := make([]*graph.Graph, p.size.tenants)
	spans := make([][]graph.EdgeSpan, p.size.tenants)
	total := 0.0
	for i := range graphs {
		g, s, err := loadGraph(tenantPath(p, i))
		if err != nil {
			return nil, nil, 0, err
		}
		graphs[i], spans[i] = g, g.SpanBatches(g.NumEdges()/p.size.serveSpan)
		total += s
	}
	return graphs, spans, total, nil
}

// serveSteps sends the lo, mid and hi steps. Span 0 of every tenant
// went in during set-up, so the steps continue from span 1. Refusals
// are counted as failures; any other error ends the run.
func serveSteps(p *params, o *outcome, tenants []tenantAPI, spans [][]graph.EdgeSpan) (*serveRun, error) {
	next := make([]int, len(tenants))
	for i := range next {
		next[i] = 1
	}
	run := &serveRun{}
	c0 := readCounters()
	for i, rate := range p.size.rates {
		b0 := scrape()["pramcc_shard_ingest_batches_total"]
		t := time.Now()
		reqs, st := sendStep(tenants, spans, next, rate, p.seconds/3, p.size.bursts[i], p.beyond)
		run.starts = append(run.starts, t)
		run.walls = append(run.walls, time.Since(t).Seconds())
		run.batches = append(run.batches, scrape()["pramcc_shard_ingest_batches_total"]-b0)
		for _, q := range reqs {
			o.Attempted++
			if q.err == nil {
				continue
			}
			o.Failed++
			if !errors.Is(q.err, pramcc.ErrOverloaded) && !errors.Is(q.err, pramcc.ErrTenantBacklog) {
				return nil, fmt.Errorf("ingest to tenant %s: %w", tenantID(q.tenant), q.err)
			}
		}
		run.reqs = append(run.reqs, reqs)
		run.steps = append(run.steps, st)
	}
	run.counted = c0.to(readCounters())
	return run, nil
}

// verifyTenants checks each tenant's published labels against the BFS
// oracle over exactly the spans it acknowledged: span 0 from set-up
// plus every acknowledged request.
func verifyTenants(tenants []tenantAPI, graphs []*graph.Graph, spans [][]graph.EdgeSpan, reqs [][]sent) error {
	acked := make([][]bool, len(tenants))
	for i := range acked {
		acked[i] = make([]bool, len(spans[i]))
		acked[i][0] = true
	}
	for _, step := range reqs {
		for _, q := range step {
			if q.err == nil {
				acked[q.tenant][q.span] = true
			}
		}
	}
	for i, t := range tenants {
		oracle := graph.New(graphs[i].N)
		for si, ok := range acked[i] {
			if ok {
				oracle.U = append(oracle.U, spans[i][si].U...)
				oracle.V = append(oracle.V, spans[i][si].V...)
			}
		}
		if err := check.Components(oracle, t.LabelsInto(nil)); err != nil {
			return errMismatch("tenant %s labels disagree with the oracle over its acknowledged spans: %v", tenantID(i), err)
		}
	}
	return nil
}

func verifyRecovered(r *pramcc.Router, before [][]int32) error {
	for i := range before {
		t, err := r.Tenant(tenantID(i))
		if err != nil {
			return err
		}
		if !slices.Equal(t.LabelsInto(nil), before[i]) {
			return errMismatch("tenant %s recovered labels differ from its labels before close", tenantID(i))
		}
	}
	return nil
}

// traceServe runs the traced pass of serve-durable on a router built
// from shard.New, whose per-tenant services record every engine batch
// as a span, checks the traced tenants against the oracle like the
// untraced ones, then feeds the acknowledged spans to a probe durable
// store.
func traceServe(p *params, o *outcome, graphs []*graph.Graph, spans [][]graph.EdgeSpan, untraced *serveRun) error {
	ctx := context.Background()
	rec := newRecorder()
	dataDir := filepath.Join(p.dir, "traced")
	indexes := map[string]*spanIndex{}
	for i := range spans {
		indexes[tenantID(i)] = newSpanIndex(spans[i])
	}
	rt, err := shard.New(shard.Config{Shards: p.workers, NewService: func(id string, n int) (shard.Service, error) {
		opts := append([]pramcc.Option{pramcc.WithInitialVertices(n)}, tenantOpts()...)
		sv, err := pramcc.Open(filepath.Join(dataDir, "t", id), opts...)
		if err != nil {
			return nil, err
		}
		return tracedService{Service: sv, rec: rec, tenant: id, index: indexes[id]}, nil
	}})
	if err != nil {
		return err
	}
	defer rt.Close()
	tenants := make([]tenantAPI, len(spans))
	for i := range spans {
		t, err := rt.CreateTenant(tenantID(i), p.size.serveN)
		if err == nil {
			_, err = t.IngestSpan(ctx, spans[i][0])
		}
		if err != nil {
			return err
		}
		tenants[i] = t
	}
	first := rec.at(time.Now())
	pramcc.SetEventSink(rec)
	run, err := serveSteps(p, o, tenants, spans)
	pramcc.SetEventSink(nil)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := verifyTenants(tenants, graphs, spans, run.reqs); err != nil {
		return err
	}
	m := o.Metrics
	m["trace.overhead_pct"] = overheadPct(run.steps[1].latMS, untraced.steps[1].latMS)

	all, kids := rec.snapshot()
	served, err := matchBatches(all, first, run.reqs)
	if err != nil {
		return err
	}
	// Each batch's service event and, nested in it, its engine event.
	type inner struct{ svc, eng *span }
	inside := map[int]inner{}
	for i := range all {
		if b := &all[i]; b.Name == "shard.batch" {
			var in inner
			for _, kid := range kids[b.ID] {
				switch c := &all[kid-1]; c.Name {
				case "service.ingest_span":
					in.svc = c
				case "incremental.batch":
					in.eng = c
				}
			}
			if in.svc != nil && in.eng != nil {
				rec.reparent(in.eng.ID, in.svc.ID)
				inside[b.ID] = in
			}
		}
	}
	lt := newLayerTimes("loadgen.late_ms", "shard.queue_wait_ms", "shard.self_ms",
		"service.publish_wal_ms", "incremental.union_ms")
	var late []float64
	for si, reqs := range run.reqs {
		var wait []float64
		for j, q := range reqs {
			b := served[si][j]
			if b == nil {
				continue // refused
			}
			in, ok := inside[b.ID]
			if !ok {
				return fmt.Errorf("trace: shard batch %d lacks its service or engine event", b.ID)
			}
			sentAt, doneAt := rec.at(q.sent), rec.at(q.done)
			wait = append(wait, float64(b.Start-sentAt)/1e6)
			late = append(late, ms(q.late()))
			rec.add(span{Name: "request", Start: rec.at(q.due), End: doneAt, Req: len(late), Tenant: b.Tenant,
				Measures: map[string]float64{"sent_ns": float64(sentAt), "batch": float64(b.ID)}})
			if si != 1 {
				continue
			}
			svc, eng := in.svc, in.eng
			lt.add(ms(q.latency()), ms(q.late()), float64(b.Start-sentAt)/1e6,
				float64(selfTime(b.iv(), []interval{svc.iv()})+doneAt-b.End)/1e6,
				float64(selfTime(svc.iv(), []interval{eng.iv()}))/1e6, eng.dur())
		}
		if m["shard.queue_wait_p99_ms."+stepNames[si]], err = percentile(wait, 0.99, p.beyond); err != nil {
			return fmt.Errorf("%s queue wait: %w", stepNames[si], err)
		}
	}
	if err := lt.report(m); err != nil {
		return err
	}
	m["loadgen.late_max_ms"] = slices.Max(late)

	hiStart, hiEnd := rec.at(run.starts[2]), rec.at(run.starts[2])+int64(run.walls[2]*1e9)
	busy := 0.0
	for i := range all {
		if b := &all[i]; b.Name == "shard.batch" && b.Start >= hiStart && b.Start < hiEnd {
			busy += b.dur()
		}
	}
	m["shard.worker_busy"] = busy / 1000 / (run.walls[2] * float64(p.workers))

	if err := probeDurable(p, rec, m, tenants[0].LabelsInto(nil), spans, run.reqs); err != nil {
		return err
	}
	return writeTrace(p, "serve-durable", rec)
}

// spanIndex finds a tenant's spans inside a shard batch by content: a
// batch is either one request's span or a copy of a run of them laid end
// to end, so its arcs decode into the spans it carried, in queue order.
type spanIndex struct {
	spans []graph.EdgeSpan
	first map[[2]int32][]int // first arc → the spans that start with it
}

func newSpanIndex(spans []graph.EdgeSpan) *spanIndex {
	x := &spanIndex{spans: spans, first: map[[2]int32][]int{}}
	for i, s := range spans {
		k := [2]int32{s.U[0], s.V[0]}
		x.first[k] = append(x.first[k], i)
	}
	return x
}

// decode returns the indices of the spans batch b carried, or nil if b
// is not a run of whole spans.
func (x *spanIndex) decode(b graph.EdgeSpan) []int {
	var out []int
	for off := 0; off < len(b.U); {
		found := -1
		for _, i := range x.first[[2]int32{b.U[off], b.V[off]}] {
			s := x.spans[i]
			end := off + len(s.U)
			if end <= len(b.U) && slices.Equal(b.U[off:end], s.U) && slices.Equal(b.V[off:end], s.V) {
				found = i
				break
			}
		}
		if found < 0 {
			return nil
		}
		out = append(out, found)
		off += len(x.spans[found].U)
	}
	return out
}

// matchBatches finds the shard batch that served each acknowledged
// request from the spans each traced batch recorded carrying. A span
// sent twice in one pass is matched to its requests in send order.
func matchBatches(all []span, first int64, reqs [][]sent) ([][]*span, error) {
	type key struct {
		tenant string
		span   int
	}
	type ref struct{ step, j int }
	pending := map[key][]ref{}
	out := make([][]*span, len(reqs))
	for si, rs := range reqs {
		out[si] = make([]*span, len(rs))
		for j, q := range rs {
			if q.err == nil {
				k := key{tenantID(q.tenant), q.span}
				pending[k] = append(pending[k], ref{si, j})
			}
		}
	}
	for i := range all {
		b := &all[i]
		if b.Name != "shard.batch" || b.Start < first {
			continue
		}
		if b.Carries == nil {
			return nil, fmt.Errorf("trace: tenant %s batch %d is not a run of whole spans", b.Tenant, b.ID)
		}
		for _, s := range b.Carries {
			k := key{b.Tenant, s}
			if len(pending[k]) == 0 {
				return nil, fmt.Errorf("trace: tenant %s batch %d carried span %d, which no acknowledged request sent", b.Tenant, b.ID, s)
			}
			r := pending[k][0]
			pending[k] = pending[k][1:]
			out[r.step][r.j] = b
		}
	}
	for k, refs := range pending {
		if len(refs) > 0 {
			return nil, fmt.Errorf("trace: tenant %s span %d was acknowledged but no traced batch carried it", k.tenant, k.span)
		}
	}
	return out, nil
}

// probeDurable replays every acknowledged span, in send order, into one
// fresh durable store with the tenants' checkpoint cadence, timing each
// WAL append and checkpoint, then reopens it to count the batches a
// recovery replays. labels is the snapshot each checkpoint writes.
func probeDurable(p *params, rec *recorder, m map[string]float64, labels []int32, spans [][]graph.EdgeSpan, reqs [][]sent) error {
	dir := filepath.Join(p.dir, "probe")
	st, _, err := durable.Open(dir, durable.OSFS{})
	if err != nil {
		return err
	}
	defer st.Close()
	root := rec.begin("durable.probe", "")
	var appends, ckpts []float64
	for _, step := range reqs {
		for _, q := range step {
			if q.err != nil {
				continue
			}
			id := rec.begin("durable.append", "")
			t := time.Now()
			_, err := st.LogSpan(spans[q.tenant][q.span])
			appends = append(appends, ms(time.Since(t)))
			rec.end(id, nil)
			if err != nil {
				return err
			}
			if st.BatchesSinceCheckpoint() < 64 {
				continue
			}
			id = rec.begin("durable.checkpoint", "")
			t = time.Now()
			err = st.Checkpoint(labels, st.Seq())
			ckpts = append(ckpts, ms(time.Since(t)))
			rec.end(id, nil)
			if err != nil {
				return err
			}
		}
	}
	rec.end(root, nil)
	if err := st.Close(); err != nil {
		return err
	}
	if m["durable.append_p50_ms"], err = percentile(appends, 0.5, p.beyond); err != nil {
		return fmt.Errorf("probe appends: %w", err)
	}
	if m["durable.append_p99_ms"], err = percentile(appends, 0.99, p.beyond); err != nil {
		return fmt.Errorf("probe appends: %w", err)
	}
	m["durable.checkpoint_ms"] = median(ckpts)
	st2, recovered, err := durable.Open(dir, durable.OSFS{})
	if err != nil {
		return err
	}
	defer st2.Close()
	if recovered != nil {
		m["recover.replayed_batches"] = float64(len(recovered.Records))
	}
	return nil
}
