// Package load turns Go package patterns into type-checked syntax
// trees using nothing but the standard library and the go command —
// the substrate the cclint analyzers (internal/analysis) run on. It
// fills the role golang.org/x/tools/go/packages plays for the upstream
// go/analysis framework: `go list -deps -export -json` resolves the
// pattern to source files plus compiled export data for every
// dependency, and go/types checks each root package from source with
// an importer that reads that export data. The module has no external
// dependencies, so the whole pipeline works offline against the build
// cache.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one type-checked root package: the syntax trees with
// comments, the go/types object graph, and enough location metadata
// for analyzers that consult files next to the source (metricdoc reads
// OPERATIONS.md at the module root).
type Package struct {
	// ImportPath is the canonical import path (e.g. repro/internal/forest).
	ImportPath string
	// Name is the package name from the package clauses.
	Name string
	// Dir is the directory holding the source files.
	Dir string
	// ModuleDir is the root directory of the module the package
	// belongs to (the directory with go.mod), "" when unknown.
	ModuleDir string
	// ModulePath is the module path from go.mod, "" when unknown.
	ModulePath string
	// Files are the parsed non-test source files, with comments.
	Files []*ast.File
	// Types and Info are the go/types results for Files.
	Types *types.Package
	Info  *types.Info
}

// listPackage is the subset of `go list -json` output the loader
// consumes.
type listPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Module     *struct {
		Path string
		Dir  string
	}
	Error *struct {
		Err string
	}
}

// Result is the outcome of one Load call: the shared FileSet, the
// type-checked root packages, and the source directories of the
// module-local dependencies that were linked as export data only
// (Marks scanning parses those separately, see ScanDirs).
type Result struct {
	Fset *token.FileSet
	// Pkgs are the root packages matched by the patterns, in go list
	// order.
	Pkgs []*Package
	// DepDirs maps import path -> source dir for non-standard,
	// non-root dependencies (module-local helpers a root calls into).
	DepDirs map[string]string
}

// Load resolves patterns (relative to dir) and type-checks every
// matched package from source. Test files are not loaded: the
// invariants cclint enforces live in the shipped code, and fixture
// registries in _test.go files must not trip metricdoc.
func Load(dir string, patterns []string) (*Result, error) {
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Name,Dir,Export,Standard,DepOnly,GoFiles,Module,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errBuf bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("load: go list %s: %v\n%s", strings.Join(patterns, " "), err, errBuf.String())
	}

	exports := map[string]string{}
	var roots []listPackage
	depDirs := map[string]string{}
	dec := json.NewDecoder(&out)
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("load: decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("load: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		switch {
		case !p.DepOnly && !p.Standard:
			roots = append(roots, p)
		case p.DepOnly && !p.Standard:
			depDirs[p.ImportPath] = p.Dir
		}
	}
	if len(roots) == 0 {
		return nil, fmt.Errorf("load: no packages matched %v", patterns)
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("load: no export data for %q", path)
		}
		return os.Open(f)
	})

	res := &Result{Fset: fset, DepDirs: depDirs}
	for _, lp := range roots {
		if len(lp.GoFiles) == 0 {
			continue
		}
		pkg, err := check(fset, imp, lp)
		if err != nil {
			return nil, err
		}
		res.Pkgs = append(res.Pkgs, pkg)
	}
	return res, nil
}

// check parses and type-checks one listed package.
func check(fset *token.FileSet, imp types.Importer, lp listPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("load: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var typeErrs []string
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			typeErrs = append(typeErrs, err.Error())
		},
	}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("load: %s does not type-check:\n  %s", lp.ImportPath, strings.Join(typeErrs, "\n  "))
	}
	if err != nil {
		return nil, fmt.Errorf("load: %s: %v", lp.ImportPath, err)
	}
	pkg := &Package{
		ImportPath: lp.ImportPath,
		Name:       lp.Name,
		Dir:        lp.Dir,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	if lp.Module != nil {
		pkg.ModuleDir = lp.Module.Dir
		pkg.ModulePath = lp.Module.Path
	}
	return pkg, nil
}

// ScanDirs parses (without type-checking) the non-test sources of the
// given directories — used to collect //pramcc:zeroalloc marks from
// module-local packages that are dependencies of the analyzed roots
// but not roots themselves, so partial-pattern runs still know which
// callees are marked.
func ScanDirs(fset *token.FileSet, dirs map[string]string) (map[string][]*ast.File, error) {
	out := map[string][]*ast.File{}
	for importPath, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("load: scanning %s: %v", dir, err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("load: %v", err)
			}
			out[importPath] = append(out[importPath], f)
		}
	}
	return out, nil
}
