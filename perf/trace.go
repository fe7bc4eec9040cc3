package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	pramcc "repro"
	"repro/graph"
)

// span is one timed interval of a traced run. Engine and service
// events become spans too: their end is when the event arrived and
// their start that minus the event's duration.
type span struct {
	ID       int                `json:"id"`
	Name     string             `json:"name"`
	Start    int64              `json:"start_ns"`
	End      int64              `json:"end_ns"`
	Parent   int                `json:"parent"` // 0: a root span
	Req      int                `json:"req"`    // request id, -1 when not a request
	Tenant   string             `json:"tenant,omitempty"`
	Measures map[string]float64 `json:"measures,omitempty"`
	Carries  []int              `json:"carries,omitempty"` // a shard batch's spans, by index into its tenant's spans
}

func (s *span) iv() interval { return interval{s.Start, s.End} }
func (s *span) dur() float64 { return float64(s.End-s.Start) / 1e6 }

// recorder keeps a run's spans in memory. It is also the pramcc event
// sink: an event's parent is the innermost span open on the goroutine
// that emitted it, which is how an engine round finds its solve and a
// service event finds the shard batch that called it.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	open  map[uint64]int // goroutine id → innermost open span id
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), open: map[uint64]int{}}
}

func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.t0)) }

// begin opens a span on the calling goroutine, nested under the span
// already open there. The span starts when begin returns and ends when
// end is called, so the recorder's own work stays outside it.
func (r *recorder) begin(name, tenant string) int {
	g := goid()
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Name: name, Parent: r.open[g], Req: -1, Tenant: tenant})
	r.open[g] = id
	r.mu.Unlock()
	now := r.at(time.Now())
	r.mu.Lock()
	r.spans[id-1].Start = now
	r.mu.Unlock()
	return id
}

// end closes span id, which must be the innermost open span of the
// calling goroutine.
func (r *recorder) end(id int, measures map[string]float64) {
	now := r.at(time.Now())
	g := goid()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End, s.Measures = now, measures
	if s.Parent == 0 {
		delete(r.open, g)
	} else {
		r.open[g] = s.Parent
	}
}

// add records a span with explicit times, for intervals that do not
// begin and end on one goroutine (an open-loop request is due before
// its goroutine exists).
func (r *recorder) add(s span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
}

// Emit implements pramcc.EventSink.
func (r *recorder) Emit(e pramcc.Event) {
	g := goid()
	now := r.at(time.Now())
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Name: e.Source + "." + e.Name,
		Start: now - int64(e.DurationMS*1e6), End: now,
		Parent: r.open[g], Req: -1, Measures: e.Measures,
	})
}

func (r *recorder) carries(id int, spans []int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].Carries = spans
}

// reparent moves span id under parent, for events whose nesting is
// known only once both ends have arrived.
func (r *recorder) reparent(id, parent int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].Parent = parent
}

// snapshot returns the spans recorded so far and an index of each
// span's children.
func (r *recorder) snapshot() ([]span, map[int][]int) {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	kids := map[int][]int{}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			kids[p] = append(kids[p], spans[i].ID)
		}
	}
	return spans, kids
}

// writeJSONL writes every span as one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	spans, _ := r.snapshot()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goid returns the calling goroutine's id, parsed from the first line
// of its stack trace ("goroutine 42 [running]:"). Tracing only: it
// costs about a microsecond.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i >= 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// tracedService is the traced router's per-tenant service: a durable
// pramcc.Service whose every engine batch — one shard-worker call,
// possibly several coalesced requests — is recorded as a "shard.batch"
// span, so the service and engine events it causes nest under it. The
// span also records which of the tenant's spans the batch carried.
type tracedService struct {
	*pramcc.Service
	rec    *recorder
	tenant string
	index  *spanIndex
}

func (s tracedService) IngestSpan(ctx context.Context, sp graph.EdgeSpan) (int, error) {
	id := s.rec.begin("shard.batch", s.tenant)
	res, err := s.Service.IngestSpan(ctx, sp)
	s.rec.end(id, map[string]float64{"edges": float64(sp.Len())})
	s.rec.carries(id, s.index.decode(sp))
	if err != nil {
		return 0, err
	}
	return res.NumComponents, nil
}

// scrape reads pramcc.WriteMetrics and sums every series by metric
// name, so a per-shard or per-tenant family reads as its total.
func scrape() map[string]float64 {
	var b bytes.Buffer
	if err := pramcc.WriteMetrics(&b); err != nil {
		return map[string]float64{}
	}
	out := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		out[name] += v
	}
	return out
}

// counters is a point-in-time reading of the pramcc metrics and the
// Go runtime metrics a workload's per-layer numbers are deltas of.
type counters struct {
	at  time.Time
	obs map[string]float64
	rt  map[string]float64
}

var runtimeNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readCounters() counters {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	rt := map[string]float64{}
	for _, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			rt[x.Name] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			rt[x.Name] = x.Value.Float64()
		}
	}
	return counters{at: time.Now(), obs: scrape(), rt: rt}
}

// delta is the growth of every counter from c to later.
type delta struct {
	seconds float64
	obs, rt map[string]float64
}

func (c counters) to(later counters) delta {
	d := delta{seconds: later.at.Sub(c.at).Seconds(), obs: map[string]float64{}, rt: map[string]float64{}}
	for k, v := range later.obs {
		d.obs[k] = v - c.obs[k]
	}
	for k, v := range later.rt {
		d.rt[k] = v - c.rt[k]
	}
	return d
}

// runtimeLayers fills the per-layer numbers every workload reads from
// counters alone: the worker pool, the union-find allocation per
// batch, and the garbage collector.
func runtimeLayers(d delta, ops int, m map[string]float64) {
	runs := d.obs["pramcc_pool_runs_total"]
	m["pool.runs_per_op"] = ratio(runs, float64(ops))
	m["pool.steals_per_run"] = ratio(d.obs["pramcc_pool_steals_total"], runs)
	m["incremental.alloc_mb_per_batch"] = ratio(d.rt["/gc/heap/allocs:bytes"]/(1<<20), d.obs["pramcc_uf_batches_total"])
	m["gc.cycles_per_s"] = ratio(d.rt["/gc/cycles/total:gc-cycles"], d.seconds)
	m["gc.cpu_fraction"] = ratio(d.rt["/cpu/classes/gc/total:cpu-seconds"], d.rt["/cpu/classes/total:cpu-seconds"])
}
