package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/antest"
)

// fixtures is the fixture module root (its own go.mod, so the loader
// resolves fixture packages the same way it resolves real ones).
const fixtures = "testdata/src"

func TestAtomicpub(t *testing.T) {
	antest.Run(t, analysis.Atomicpub, fixtures, "./atomicpub")
}

func TestZeroalloc(t *testing.T) {
	antest.Run(t, analysis.Zeroalloc, fixtures, "./zeroalloc")
}

func TestCtxround(t *testing.T) {
	antest.Run(t, analysis.Ctxround, fixtures, "./forest")
}

func TestWaldiscipline(t *testing.T) {
	antest.Run(t, analysis.Waldiscipline, fixtures, "./waldiscipline", "./durable")
}

func TestMetricdoc(t *testing.T) {
	antest.Run(t, analysis.Metricdoc, fixtures, "./metricdoc")
}

// TestMalformedAllowIsDiagnosed pins the directive rule: a suppression
// that fails to parse surfaces as a diagnostic no matter which
// analyzer runs.
func TestMalformedAllowIsDiagnosed(t *testing.T) {
	antest.Run(t, analysis.Atomicpub, fixtures, "./directive")
}
