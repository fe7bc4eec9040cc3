package analysis_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestSuiteCleanOnTree is the cclint smoke test: the full suite over
// the whole module must produce zero unsuppressed diagnostics — the
// same bar CI holds `go run ./cmd/cclint ./...` to.
func TestSuiteCleanOnTree(t *testing.T) {
	res, err := analysis.RunSuite("../..", []string{"./..."}, nil)
	if err != nil {
		t.Fatalf("running suite over module: %v", err)
	}
	for _, d := range res.Diags {
		t.Errorf("unsuppressed diagnostic: %s", d)
	}
	if res.Packages < 10 {
		t.Errorf("suite analyzed only %d packages; pattern resolution looks broken", res.Packages)
	}
}

// allowBudget is the number of //pramcc:allow directives in the tree
// (fixtures excluded) at the time the suite landed. The allowlist may
// shrink; growing it needs a reviewed bump here, with the same scrutiny
// as the suppression itself.
// Current suppressions, both grow-or-reuse buffer growth on zeroalloc
// paths: pramcc.labelsInto and pool.Shard.Init's cursor slice.
const allowBudget = 2

func TestAllowlistDoesNotGrow(t *testing.T) {
	count := 0
	root := filepath.Clean("../..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || name == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		// Count directive lines, not substring mentions (this file and
		// the analyzer sources talk about the directive in prose).
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "//pramcc:allow") {
				count++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking module: %v", err)
	}
	if count > allowBudget {
		t.Errorf("tree has %d //pramcc:allow directives, budget is %d; remove a suppression or bump allowBudget with review", count, allowBudget)
	}
	if count == 0 {
		t.Error("found no //pramcc:allow directives at all; the scan is likely looking in the wrong place")
	}
}
