package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/graph"
)

func edgeListString(t *testing.T, g *graph.Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestRunStdinAllAlgorithms(t *testing.T) {
	g := graph.DisjointUnion(graph.Path(10), graph.Clique(5))
	in := edgeListString(t, g)
	for _, algo := range []string{"fast", "loglog", "vanilla"} {
		var out bytes.Buffer
		if err := run([]string{"-algo", algo}, strings.NewReader(in), &out); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !strings.Contains(out.String(), "components=2") {
			t.Fatalf("%s output missing component count: %s", algo, out.String())
		}
	}
}

func TestRunVerboseAndForest(t *testing.T) {
	g := graph.Cycle(6)
	var out bytes.Buffer
	err := run([]string{"-v", "-forest"}, strings.NewReader(edgeListString(t, g)), &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "forest edges: 5") {
		t.Fatalf("missing forest output: %s", s)
	}
	if len(strings.Split(strings.TrimSpace(s), "\n")) < 1+6+1+5 {
		t.Fatalf("verbose output too short:\n%s", s)
	}
}

func TestRunFromFile(t *testing.T) {
	g := graph.Star(8)
	path := filepath.Join(t.TempDir(), "g.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteEdgeList(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var out bytes.Buffer
	if err := run([]string{path}, nil, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "components=1") {
		t.Fatalf("unexpected output: %s", out.String())
	}
}

// TestRunWorkersThreadedThroughOneShot: the one-shot native run honors
// -workers, visible as workers=N in the summary line (Stats.Workers is
// the pool size the run actually used). The simulated algorithms and
// -forest accept the flag and report the simulator's one thread.
func TestRunWorkersThreadedThroughOneShot(t *testing.T) {
	g := graph.DisjointUnion(graph.Path(10), graph.Clique(5))
	in := edgeListString(t, g)
	var out bytes.Buffer
	if err := run([]string{"-backend", "native", "-workers", "3"}, strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "workers=3") {
		t.Fatalf("-workers 3 not honored by the one-shot native run: %s", out.String())
	}
	for _, args := range [][]string{
		{"-algo", "fast"}, {"-algo", "loglog"}, {"-algo", "vanilla"}, {"-forest"},
	} {
		out.Reset()
		if err := run(append(args, "-workers", "3"), strings.NewReader(in), &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if !strings.Contains(out.String(), "workers=1") {
			t.Fatalf("%v: simulated run did not report one thread: %s", args, out.String())
		}
	}
}

// TestRunBinaryInput: ccfind must accept the binary format
// transparently, from a file and from stdin.
func TestRunBinaryInput(t *testing.T) {
	g := graph.DisjointUnion(graph.Cycle(12), graph.Star(7))
	var bin bytes.Buffer
	if err := g.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := os.WriteFile(path, bin.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{path}, nil, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "components=2") {
		t.Fatalf("binary file run: %s", out.String())
	}
	out.Reset()
	if err := run([]string{"-batches", "3"}, bytes.NewReader(bin.Bytes()), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "backend=incremental") || !strings.Contains(out.String(), "components=2") {
		t.Fatalf("binary stdin -batches run: %s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-algo", "nope"}, strings.NewReader("2 1\n0 1\n"), &bytes.Buffer{}); err == nil {
		t.Fatal("bad algo accepted")
	}
	if err := run(nil, strings.NewReader("garbage"), &bytes.Buffer{}); err == nil {
		t.Fatal("bad input accepted")
	}
	if err := run([]string{"/definitely/not/a/file"}, nil, &bytes.Buffer{}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRunBatches(t *testing.T) {
	g := graph.DisjointUnion(graph.Path(30), graph.Clique(6))
	var out bytes.Buffer
	if err := run([]string{"-batches", "4", "-v"}, strings.NewReader(edgeListString(t, g)), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"batch 1/4:", "batch 4/4:", "components=2", "batches=4", "backend=incremental"} {
		if !strings.Contains(s, want) {
			t.Fatalf("batches output missing %q:\n%s", want, s)
		}
	}
	if len(strings.Split(strings.TrimSpace(s), "\n")) != 4+1+g.N {
		t.Fatalf("expected 4 batch lines + summary + %d label lines:\n%s", g.N, s)
	}
}

func TestRunBatchesRejectsForest(t *testing.T) {
	if err := run([]string{"-batches", "2", "-forest"}, strings.NewReader("2 1\n0 1\n"), &bytes.Buffer{}); err == nil {
		t.Fatal("-batches with -forest accepted")
	}
}

func TestRunBatchesRejectsAlgoAndSeed(t *testing.T) {
	for _, args := range [][]string{
		{"-batches", "2", "-algo", "vanilla"},
		{"-batches", "2", "-seed", "7"},
	} {
		if err := run(args, strings.NewReader("3 2\n0 1\n1 2\n"), &bytes.Buffer{}); err == nil {
			t.Fatalf("%v accepted", args)
		}
	}
}

func TestRunBatchesCappedDenominator(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-batches", "10"}, strings.NewReader("4 3\n0 1\n1 2\n2 3\n"), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "batch 3/3:") || strings.Contains(s, "/10:") {
		t.Fatalf("denominator not capped to actual batch count:\n%s", s)
	}
}

// TestRunBackendFlag: -backend is a flag.TextVar over the pramcc
// registry — case-insensitive names and aliases select the engine,
// conflicting simulator-only flags are rejected, and unknown names
// fail parsing with the registered list.
func TestRunBackendFlag(t *testing.T) {
	g := graph.DisjointUnion(graph.Path(10), graph.Clique(5))
	in := edgeListString(t, g)
	for _, bk := range []string{"native", "NATIVE", "incremental", "inc", "simulated"} {
		var out bytes.Buffer
		if err := run([]string{"-backend", bk}, strings.NewReader(in), &out); err != nil {
			t.Fatalf("%s: %v", bk, err)
		}
		if !strings.Contains(out.String(), "components=2") {
			t.Fatalf("%s output: %s", bk, out.String())
		}
	}
	var out bytes.Buffer
	if err := run([]string{"-backend", "native", "-v"}, strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "backend=native") {
		t.Fatalf("summary line missing backend: %s", out.String())
	}
	if len(strings.Split(strings.TrimSpace(out.String()), "\n")) != 1+g.N {
		t.Fatalf("-v label lines missing:\n%s", out.String())
	}
	for _, args := range [][]string{
		{"-backend", "native", "-algo", "vanilla"},
		{"-backend", "native", "-seed", "3"},
		{"-backend", "inc", "-forest"},
		{"-backend", "gpu"},
		{"-batches", "2", "-backend", "native"},
	} {
		if err := run(args, strings.NewReader("3 2\n0 1\n1 2\n"), &bytes.Buffer{}); err == nil {
			t.Fatalf("%v accepted", args)
		}
	}
	// Explicitly naming the backend -batches implies is not a conflict.
	out.Reset()
	if err := run([]string{"-batches", "2", "-backend", "incremental"}, strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "backend=incremental") {
		t.Fatalf("batches output: %s", out.String())
	}
}
