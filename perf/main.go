// Command perf is the repository benchmark. It runs four workloads —
// native batch solves, the paper's algorithm on the PRAM simulator,
// streaming ingest with a concurrent reader, and open-loop durable
// sharded serving — each in a child process of its own, checks every
// output against an oracle, and prints its metrics by name and unit,
// ending with one JSON line:
//
//	bash perf/run.sh -seed 1                  # all four, end-to-end metrics
//	bash perf/run.sh -seed 1 -trace           # per-layer metrics from a traced pass
//	bash perf/run.sh -seed 1 -sets 2          # repeatability against BENCHMARK.json bounds
//	bash perf/run.sh --workload serve-durable --seed 3 --seconds 20 --trace 0
//
// Within perf/, "go run . -seed 1" does the same without run.sh's
// build settings. perf/README.md documents the workloads, the metrics
// and their bounds, and a calibration record.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
)

// metricDef is one reported metric; BENCHMARK.json lists the same
// names, units and directions (TestBenchmarkJSONMatches keeps them in
// step).
type metricDef struct{ name, unit, better string }

// endToEnd is what every workload's untraced run reports, each metric
// bounded in BENCHMARK.json. setup_s is their only timing: on the
// calibration host no op timing held a 10% bound from run to run
// (perf/README.md), so the op timings are per-layer metrics.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ok_ratio", "fraction", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// untracedToo are the per-layer metrics an untraced run measures anyway;
// its table and spreads show them, without a bound.
var untracedToo = []metricDef{
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"edges_per_s", "edges/s", "higher"},
}

// perLayer is what every workload's traced run reports. A layer a
// workload never reaches reads 0. "op" is the workload's unit of work:
// a Solve, a Service.IngestSpan, or a routed Tenant.IngestSpan timed
// from its due time at the mid rate.
var perLayer = []metricDef{
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"edges_per_s", "edges/s", "higher"},
	{"ingest_p99_ms", "ms", "lower"},
	{"ingest_p99_ms.lo", "ms", "lower"},
	{"ingest_p99_ms.hi", "ms", "lower"},
	{"query_p99_us", "us", "lower"},
	{"slo_rate_per_s", "spans/s", "higher"},
	{"recover_s", "s", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"loadgen.late_ms", "ms", "lower"},
	{"loadgen.late_max_ms", "ms", "lower"},
	{"graph.load_s", "s", "lower"},
	{"pool.runs_per_op", "count", "lower"},
	{"pool.steals_per_run", "count", "lower"},
	{"native.rounds_per_solve", "count", "lower"},
	{"native.rounds_ms", "ms", "lower"},
	{"native.round1_ms", "ms", "lower"},
	{"native.verify_round_ms", "ms", "lower"},
	{"solver.self_ms", "ms", "lower"},
	{"sim.rounds.min", "count", "lower"},
	{"sim.rounds.max", "count", "lower"},
	{"sim.pram_steps.min", "count", "lower"},
	{"sim.pram_steps.max", "count", "lower"},
	{"sim.work.min", "count", "lower"},
	{"sim.work.max", "count", "lower"},
	{"sim.round_ms", "ms", "lower"},
	{"sim.post_ms", "ms", "lower"},
	{"incremental.union_ms", "ms", "lower"},
	{"incremental.publish_ms", "ms", "lower"},
	{"incremental.alloc_mb_per_batch", "MB", "lower"},
	{"service.self_ms", "ms", "lower"},
	{"service.publish_wal_ms", "ms", "lower"},
	{"gc.cycles_per_s", "1/s", "lower"},
	{"gc.cpu_fraction", "fraction", "lower"},
	{"durable.fsyncs_per_span", "count", "lower"},
	{"durable.wal_bytes_per_edge", "bytes/edge", "lower"},
	{"durable.checkpoints", "count", "lower"},
	{"durable.append_p50_ms", "ms", "lower"},
	{"durable.append_p99_ms", "ms", "lower"},
	{"durable.checkpoint_ms", "ms", "lower"},
	{"recover.replayed_batches", "count", "lower"},
	{"shard.queue_wait_ms", "ms", "lower"},
	{"shard.queue_wait_p99_ms.lo", "ms", "lower"},
	{"shard.queue_wait_p99_ms.mid", "ms", "lower"},
	{"shard.queue_wait_p99_ms.hi", "ms", "lower"},
	{"shard.spans_per_batch.lo", "count", "higher"},
	{"shard.spans_per_batch.hi", "count", "higher"},
	{"shard.worker_busy", "fraction", "lower"},
	{"shard.queue_depth_max", "count", "lower"},
	{"shard.refused", "count", "lower"},
	{"shard.self_ms", "ms", "lower"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("workload", "all", "workload to run: all, or one of "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 20, "length of each measured pass in seconds")
	trace := fs.Bool("trace", false, "add a traced pass and report per-layer metrics instead of end-to-end ones")
	sets := fs.Int("sets", 1, "run the whole set this many times, alternating workload order, and check each end-to-end spread against its BENCHMARK.json bound")
	out := fs.String("out", filepath.Join("perf", "out"), "directory for generated inputs, durable state and traces")
	child := fs.String("child", "", "internal: run the workload in this process on the inputs in this directory")
	if err := fs.Parse(boolArgs(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || *sets < 1 {
		fmt.Fprintln(stderr, "perf: want positive -seconds and -sets and no positional arguments")
		return 2
	}
	chosen := workloads
	if *only != "all" {
		w, ok := findWorkload(*only)
		if !ok {
			fmt.Fprintf(stderr, "perf: unknown workload %q (want all, %s)\n", *only, strings.Join(names, ", "))
			return 2
		}
		chosen = []workload{w}
	}
	p := params{seed: *seed, seconds: *seconds, trace: *trace, out: *out, size: fullSize, beyond: minBeyond}

	if *child != "" {
		p.dir, p.workers = *child, runtime.GOMAXPROCS(0)
		o, err := chosen[0].run(&p)
		if err != nil {
			fmt.Fprintf(stderr, "perf: %s: %v\n", chosen[0].name, err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(o); err != nil {
			return 1
		}
		return 0
	}

	var bounds map[string]float64
	if *sets > 1 && !*trace {
		var err error
		if bounds, err = readBounds("BENCHMARK.json"); err != nil {
			fmt.Fprintf(stderr, "perf: -sets needs the bounds: %v\n", err)
			return 2
		}
	}
	defs, shown := endToEnd, append(slices.Clone(endToEnd), untracedToo...)
	if *trace {
		defs, shown = perLayer, perLayer
	}
	results := make([]map[string]*outcome, *sets)
	for s := range results {
		results[s] = map[string]*outcome{}
		order := slices.Clone(chosen)
		if s%2 == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			o, err := runChild(w, p, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "perf: %v\n", err)
				return 1
			}
			if err := checkMetrics(o, defs, !*trace); err != nil {
				fmt.Fprintf(stderr, "perf: %s: %v\n", w.name, err)
				return 1
			}
			results[s][w.name] = o
			printTable(stdout, w.name, s, o, shown)
		}
	}
	code := 0
	if *sets > 1 {
		code = printSpreads(stdout, chosen, results, shown, bounds)
	}
	last := results[len(results)-1]
	if err := printJSON(stdout, chosen, last, defs); err != nil {
		fmt.Fprintf(stderr, "perf: %v\n", err)
		return 1
	}
	return code
}

// boolArgs rewrites "-trace 0" and "-trace 1", with one dash or two, as
// "-trace=0" and "-trace=1": the flag package would read the value of a
// boolean flag given as a separate argument as a positional argument.
func boolArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			i++
			a += "=" + args[i]
		}
		out = append(out, a)
	}
	return out
}

// runChild generates w's inputs, runs w in a child process so its peak
// RSS and garbage-collector state are its own, and removes the inputs.
func runChild(w workload, p params, stderr io.Writer) (*outcome, error) {
	if err := os.MkdirAll(p.out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(p.out, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p.dir = dir
	if err := w.prepare(&p); err != nil {
		return nil, fmt.Errorf("%s: generating inputs: %w", w.name, err)
	}
	debug.FreeOSMemory()
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	cmd := exec.Command(exe, "-child", dir, "-workload", w.name,
		"-seed", strconv.FormatInt(p.seed, 10), "-seconds", strconv.FormatFloat(p.seconds, 'g', -1, 64),
		"-trace="+strconv.FormatBool(p.trace), "-out", p.out)
	cmd.Stdout, cmd.Stderr = &buf, stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	var o outcome
	if err := json.Unmarshal(lastLine(buf.Bytes()), &o); err != nil {
		return nil, fmt.Errorf("%s: reading the child's result: %w", w.name, err)
	}
	return &o, nil
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// resident-set high-water mark, VmHWM, from the current RSS (writing 5
// to clear_refs, see proc(5)). A workload calls it just before its
// untraced pass, so peakRSSMB read just after covers the system under
// the measured load and leaves out the benchmark's own oracle checks
// and transient set-up memory. getrusage's maxrss would not do: it
// cannot be restarted, and in a child it also counts the parent's
// memory, which the child shares between fork and exec.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads VmHWM.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(kb, "kB")), 64)
			return v / 1024, err
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

// checkMetrics rejects an outcome that misses a required metric and
// fills in 0 for every other metric the workload does not reach.
func checkMetrics(o *outcome, defs []metricDef, required bool) error {
	for _, d := range defs {
		v, ok := o.Metrics[d.name]
		if !ok && required {
			return fmt.Errorf("missing metric %s", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		o.Metrics[d.name] = v
	}
	return nil
}

func printTable(w io.Writer, name string, set int, o *outcome, defs []metricDef) {
	fmt.Fprintf(w, "# %s (set %d): %d ops attempted, %d failed, outputs verified\n", name, set+1, o.Attempted, o.Failed)
	if late := o.Metrics["loadgen.late_max_ms"]; late > maxLateMS {
		fmt.Fprintf(w, "# %s: load generator ran up to %.1f ms late (limit %d ms): its due-time latencies include the generator's own stalls\n", name, late, maxLateMS)
	}
	if ov := o.Metrics["trace.overhead_pct"]; math.Abs(ov) > maxOverheadPct {
		fmt.Fprintf(w, "# %s: the traced op p50 is %+.1f%% off the untraced one (limit %d%%): the layer self times, which add up to the traced op, do not add up to the untraced p50\n", name, ov, maxOverheadPct)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-15s %-32s %16.6g %s\n", name, d.name, o.Metrics[d.name], d.unit)
	}
}

// printSpreads prints every metric's spread across sets next to its
// bound and returns 1 if an end-to-end spread exceeds its bound.
func printSpreads(w io.Writer, chosen []workload, results []map[string]*outcome, defs []metricDef, bounds map[string]float64) int {
	code := 0
	fmt.Fprintf(w, "# spread across %d sets: (max-min)/mean\n", len(results))
	for _, wl := range chosen {
		for _, d := range defs {
			var xs []float64
			for _, r := range results {
				xs = append(xs, r[wl.name].Metrics[d.name])
			}
			sp := spread(xs)
			verdict := ""
			if b, ok := bounds[d.name]; ok {
				verdict = fmt.Sprintf("bound %.2f ok", b)
				if sp > b {
					verdict, code = fmt.Sprintf("bound %.2f EXCEEDED", b), 1
				}
			}
			fmt.Fprintf(w, "%-15s %-32s spread %7.4f  %s\n", wl.name, d.name, sp, verdict)
		}
	}
	return code
}

// printJSON prints the result line: one workload's metrics by name, or
// with several workloads each metric prefixed by its workload.
func printJSON(w io.Writer, chosen []workload, res map[string]*outcome, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}} // a run that failed an oracle check has already exited 1
	for _, wl := range chosen {
		o := res[wl.name]
		line.Attempted += o.Attempted
		line.Failed += o.Failed
		for _, d := range defs {
			key := d.name
			if len(chosen) > 1 {
				key = wl.name + "/" + d.name
			}
			line.Metrics[key] = value{o.Metrics[d.name], d.unit}
		}
	}
	return json.NewEncoder(w).Encode(line)
}

// readBounds reads each end-to-end metric's regression bound from
// BENCHMARK.json.
func readBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, m := range b.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}
