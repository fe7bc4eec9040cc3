package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func demoTable() *Table {
	t := &Table{
		ID:     "EX",
		Title:  "demo",
		Claim:  "claims hold",
		Header: []string{"a", "b"},
		Notes:  []string{"a note"},
	}
	t.Add(1, 2.5)
	t.Add("x", 7)
	return t
}

func TestFprintText(t *testing.T) {
	var buf bytes.Buffer
	demoTable().Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"EX", "demo", "claims hold", "2.50", "a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestFprintMarkdown(t *testing.T) {
	var buf bytes.Buffer
	if err := demoTable().FprintMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"### EX", "| a | b |", "| --- | --- |", "| 1 | 2.50 |", "*a note*"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown output missing %q:\n%s", want, out)
		}
	}
}

func TestFprintCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := demoTable().FprintCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 CSV lines, got %d", len(lines))
	}
	if lines[0] != "experiment,a,b" || lines[1] != "EX,1,2.50" {
		t.Fatalf("csv content wrong: %v", lines)
	}
}

func TestFprintJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := demoTable().FprintJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got struct {
		ID     string     `json:"id"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
		Notes  []string   `json:"notes"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if got.ID != "EX" || len(got.Header) != 2 || len(got.Rows) != 2 || len(got.Notes) != 1 {
		t.Fatalf("json content wrong: %+v", got)
	}
	if got.Rows[0][1] != "2.50" {
		t.Fatalf("json cell wrong: %+v", got.Rows)
	}
}

func TestParseFormat(t *testing.T) {
	for in, want := range map[string]Format{
		"text": FormatText, "": FormatText,
		"markdown": FormatMarkdown, "md": FormatMarkdown,
		"csv": FormatCSV, "json": FormatJSON,
	} {
		got, err := ParseFormat(in)
		if err != nil || got != want {
			t.Fatalf("ParseFormat(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseFormat("yaml"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestRenderTo(t *testing.T) {
	for _, f := range []Format{FormatText, FormatMarkdown, FormatCSV, FormatJSON} {
		var buf bytes.Buffer
		if err := demoTable().RenderTo(&buf, f); err != nil {
			t.Fatal(err)
		}
		if buf.Len() == 0 {
			t.Fatalf("format %v produced no output", f)
		}
	}
}

// TestExperimentsRegistered ensures the registry stays complete and
// every experiment produces a well-formed table at Quick scale. (E2,
// E7 and friends are exercised individually elsewhere; this is the
// structural check that ids, headers and rows stay consistent.)
func TestExperimentsRegistered(t *testing.T) {
	all := All()
	if len(all) != 16 {
		t.Fatalf("want 16 experiments, got %d", len(all))
	}
	seen := map[string]bool{}
	for i, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %d incomplete: %+v", i, e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
	}
	ids := IDs()
	if len(ids) != len(all) {
		t.Fatalf("IDs() returned %d ids for %d experiments", len(ids), len(all))
	}
	for i, e := range all {
		if ids[i] != e.ID {
			t.Fatalf("IDs()[%d] = %s, registry has %s", i, ids[i], e.ID)
		}
	}
}

// TestSmallExperimentsRun executes the cheap experiments end to end;
// the expensive ones run in cmd/ccbench and the benchmarks.
func TestSmallExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments skipped in -short")
	}
	for _, id := range []string{"E4", "E8", "E9", "E11", "E12", "E13"} {
		for _, e := range All() {
			if e.ID != id {
				continue
			}
			tbl := e.Run(Quick)
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s produced no rows", id)
			}
			if len(tbl.Header) == 0 {
				t.Fatalf("%s has no header", id)
			}
			for _, r := range tbl.Rows {
				if len(r) != len(tbl.Header) {
					t.Fatalf("%s row width %d != header width %d", id, len(r), len(tbl.Header))
				}
			}
		}
	}
}
