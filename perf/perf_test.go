package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"repro/graph"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // descending: percentile must sort a copy
	}
	if got, err := percentile(xs, 0.9, minBeyond); err != nil || got != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", got, err)
	}
	if xs[0] != 100 {
		t.Fatal("percentile reordered its input")
	}
	if _, err := percentile(xs[:99], 0.9, minBeyond); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it and must be an error")
	}
	if _, err := percentile(xs, 0.99, minBeyond); err == nil {
		t.Fatal("p99 of 100 samples must be an error")
	}
	if _, err := percentile(nil, 0.5, 1); err == nil {
		t.Fatal("percentile of no samples must be an error")
	}
	for _, c := range []struct {
		q    float64
		want int
	}{{0.5, 20}, {0.9, 100}, {0.99, 1000}} {
		if got := need(c.q, minBeyond); got != c.want {
			t.Errorf("need(%v) = %d, want %d", c.q, got, c.want)
		}
		xs := make([]float64, c.want)
		if _, err := percentile(xs, c.q, minBeyond); err != nil {
			t.Errorf("p%v of need(%v) samples: %v", c.q*100, c.q, err)
		}
	}
}

func TestDueTimeLatency(t *testing.T) {
	due := time.Unix(100, 0)
	r := request{due: due, sent: due.Add(3 * time.Millisecond), done: due.Add(10 * time.Millisecond)}
	if r.latency() != 10*time.Millisecond || r.late() != 3*time.Millisecond {
		t.Fatalf("latency %v late %v; want 10ms from due, 3ms late", r.latency(), r.late())
	}
}

func TestSLORule(t *testing.T) {
	fast := make([]float64, 1000)
	slow := make([]float64, 1000)
	for i := range fast {
		fast[i], slow[i] = 5, 5
	}
	for i := 0; i < 20; i++ {
		slow[i] = sloLimitMS + 1
	}
	flat := []int{0, 1, 0, 1, 0, 1, 0, 1}
	growing := []int{0, 0, 1, 2, 3, 4, 5, 6}
	steps := []step{
		{rate: 250, latMS: fast, depth: flat},
		{rate: 500, latMS: fast, depth: flat},
		{rate: 1000, latMS: fast, depth: flat},
	}
	if got := sloRate(steps, minBeyond); got != 1000 {
		t.Fatalf("all steps healthy: slo rate %v, want 1000", got)
	}
	for name, bad := range map[string]step{
		"refused":  {rate: 1000, latMS: fast, depth: flat, refused: 1},
		"slow p99": {rate: 1000, latMS: slow, depth: flat},
		"backlog":  {rate: 1000, latMS: fast, depth: growing},
		"too few":  {rate: 1000, latMS: fast[:999], depth: flat},
	} {
		steps[2] = bad
		if got := sloRate(steps, minBeyond); got != 500 {
			t.Errorf("%s at hi: slo rate %v, want 500", name, got)
		}
	}
	if got := sloRate([]step{{rate: 250, refused: 3, latMS: fast}}, minBeyond); got != 0 {
		t.Errorf("no healthy step: slo rate %v, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, c := range []struct {
		name string
		kids []interval
		want int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping counted once", []interval{{110, 150}, {140, 160}}, 50},
		{"clipped to the parent", []interval{{50, 120}, {190, 300}}, 70},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"outside", []interval{{0, 50}, {250, 300}}, 100},
	} {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestLayerTimesDecomposeTheMedianOp(t *testing.T) {
	lt := newLayerTimes("a", "b")
	var ops []float64
	for i := 1; i <= 100; i++ {
		total := float64(i)
		lt.add(total, total*0.25, total*0.75)
		ops = append(ops, total)
	}
	m := map[string]float64{}
	if err := lt.report(m); err != nil {
		t.Fatal(err)
	}
	if math.Abs(m["a"]+m["b"]-median(ops)) > 0.05*median(ops) {
		t.Fatalf("layers %v + %v do not sum to the median op %v", m["a"], m["b"], median(ops))
	}
	if math.Abs(m["a"]*3-m["b"]) > 1e-9 {
		t.Fatalf("layer shares %v, %v; want 1:3", m["a"], m["b"])
	}
	if err := newLayerTimes("a").report(m); err == nil {
		t.Fatal("a layer with no spans must be an error")
	}
}

// TestBatchesMatchedByContent sends a tenant's requests in one order and
// lets the batches carry them in another, as racing senders can: every
// request must still be matched to the batch that carried its span.
func TestBatchesMatchedByContent(t *testing.T) {
	spans := graph.Gnm(100, 40, 3).SpanBatches(8)
	x := newSpanIndex(spans)
	merged := graph.EdgeSpan{U: slices.Concat(spans[5].U, spans[2].U), V: slices.Concat(spans[5].V, spans[2].V)}
	if got := x.decode(merged); !slices.Equal(got, []int{5, 2}) {
		t.Fatalf("decode(5+2) = %v", got)
	}
	if got := x.decode(spans[7]); !slices.Equal(got, []int{7}) {
		t.Fatalf("decode(7) = %v", got)
	}
	if got := x.decode(graph.EdgeSpan{U: spans[1].U[2:], V: spans[1].V[2:]}); got != nil {
		t.Fatalf("decode of a partial span = %v, want nil", got)
	}

	reqs := [][]sent{{{tenant: 0, span: 2}, {tenant: 0, span: 5}, {tenant: 0, span: 7}, {tenant: 0, span: 1, err: errors.New("refused")}}}
	all := []span{
		{ID: 1, Name: "shard.batch", Start: 10, Tenant: tenantID(0), Carries: []int{5, 2}},
		{ID: 2, Name: "shard.batch", Start: 20, Tenant: tenantID(0), Carries: []int{7}},
	}
	served, err := matchBatches(all, 0, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range []int{1, 1, 2, 0} {
		got := 0
		if served[0][j] != nil {
			got = served[0][j].ID
		}
		if got != want {
			t.Errorf("request %d served by batch %d, want %d", j, got, want)
		}
	}
	all[1].Carries = []int{1}
	if _, err := matchBatches(all, 0, reqs); err == nil {
		t.Error("a batch carrying a refused span must be an error")
	}
	all[1].Carries = nil
	if _, err := matchBatches(all, 0, reqs); err == nil {
		t.Error("an undecoded batch must be an error")
	}
	if _, err := matchBatches(all[:1], 0, reqs); err == nil {
		t.Error("an acknowledged request no batch carried must be an error")
	}
}

func TestBoolArgs(t *testing.T) {
	got := boolArgs([]string{"--workload", "w", "--trace", "1", "-seed", "1", "-trace", "0", "-trace"})
	want := []string{"--workload", "w", "--trace=1", "-seed", "1", "-trace=0", "-trace"}
	if !slices.Equal(got, want) {
		t.Fatalf("boolArgs = %q, want %q", got, want)
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{90, 110}); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("spread(90, 110) = %v, want 0.2", got)
	}
	if got := spread([]float64{5, 5, 5}); got != 0 {
		t.Fatalf("spread of equal values = %v", got)
	}
}

func TestPartitionHashIgnoresLabelNames(t *testing.T) {
	seen := make([]int32, 6)
	a := partitionHash([]int32{0, 0, 2, 2, 4, 0}, seen)
	b := partitionHash([]int32{5, 5, 1, 1, 3, 5}, seen)
	c := partitionHash([]int32{0, 0, 2, 4, 4, 0}, seen)
	if a != b || a == c {
		t.Fatalf("hashes %x %x %x: want equal for renamed labels, different for another partition", a, b, c)
	}
}

func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-seconds", "0"},
		{"-sets", "0"},
		{"extra"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}

// toySize runs every workload end to end in a fraction of a second.
var toySize = sizes{
	solveN: 2000, solveM: 20_000,
	simN:    512,
	streamN: 2000, streamM: 20_000, streamSpan: 200,
	queryRate: 1000,
	tenants:   3, serveN: 500, serveM: 3000, serveSpan: 50,
	rates:  [3]float64{500, 1000, 2000},
	bursts: [3]int{1, 1, 2},
}

// TestWorkloadsToySize runs all four workloads, traced, with their
// oracles, and checks every end-to-end and per-layer metric comes out.
func TestWorkloadsToySize(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			p := &params{seed: 7, seconds: 0.3, trace: true, workers: 2, dir: t.TempDir(), size: toySize, beyond: 1}
			if err := w.prepare(p); err != nil {
				t.Fatal(err)
			}
			o, err := w.run(p)
			if err != nil {
				t.Fatal(err)
			}
			if o.Attempted == 0 || o.Failed != 0 {
				t.Fatalf("outcome %+v", o)
			}
			for _, d := range endToEnd {
				if !(o.Metrics[d.name] > 0) {
					t.Errorf("%s = %v, want > 0", d.name, o.Metrics[d.name])
				}
			}
			if _, ok := o.Metrics["trace.overhead_pct"]; !ok {
				t.Error("no trace overhead reported")
			}
			if err := checkMetrics(o, perLayer, false); err != nil {
				t.Error(err)
			}
			for name := range o.Metrics {
				if !defined(name) {
					t.Errorf("reported metric %s is not in the metric tables", name)
				}
			}
		})
	}
}

func defined(name string) bool {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return true
			}
		}
	}
	return false
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables
// the program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %s/%s/%s, program %s/%s/%s", kind, i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
			}
			if (m.Bound != nil) != bounded || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s %s: bad bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd, true)
	same("per_layer", b.PerLayer, perLayer, false)
}
