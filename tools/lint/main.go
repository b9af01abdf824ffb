// Command lint enforces determinism invariants on the injection and
// results packages. Campaign tallies must be bit-identical for any
// worker count and reproducible from their seeds (the store's top-up
// resume depends on it), so sources of run-to-run variation are
// forbidden there:
//
//   - wall-clock reads: time.Now, time.Since, time.Until, time.Tick
//   - the global math/rand source (package-level rand.Intn, rand.Seed,
//     ...); explicitly seeded rand.New(rand.NewSource(seed)) instances
//     are fine, as are the constructors themselves
//   - range over a map, whose iteration order is randomized per run —
//     a loop whose effect is genuinely order-free may carry a
//     `//lint:ordered <why>` comment on the range line or the line
//     above to state that and suppress the diagnostic
//   - range over a map keyed by strata.Key, which the annotation can
//     NOT suppress: stratum order is part of the stratified record
//     stream's identity (pilot and round allocations are emitted in
//     partition order), so stratum maps must be walked through the
//     Partition's stable ordering, never through map iteration
//   - float accumulation inside a map-range body (`sum += x`, or
//     `sum = sum + x`, with a float-typed accumulator), which the
//     annotation can NOT suppress either: float addition is not
//     associative, so even a loop whose logical effect is order-free
//     produces run-to-run bit differences when the iteration order
//     feeds a float sum — sort the keys instead
//
// Test files are exempt. The linter is stdlib-only: it typechecks the
// audited packages from source (go/parser + go/types), resolving
// module-internal imports from the repo tree and standard-library
// imports from GOROOT source.
//
// Usage:
//
//	go run ./tools/lint [import-path ...]
//
// With no arguments it audits the determinism-critical set.
package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const module = "vulnstack"

// defaultPackages is the determinism-critical set: every package whose
// output feeds the persistent results store — the injectors, the
// execution models and convergence comparators they classify with
// (micro, emu, ir, mem, dev), the campaign/record plumbing, and the
// root package, whose Lab decides which stored records serve a figure.
var defaultPackages = []string{
	module + "/internal/inject",
	module + "/internal/arch",
	module + "/internal/ckpt",
	module + "/internal/llfi",
	module + "/internal/results",
	module + "/internal/colseg",
	module + "/internal/micro",
	module + "/internal/emu",
	module + "/internal/tb",
	module + "/internal/ir",
	module + "/internal/mem",
	module + "/internal/dev",
	module + "/internal/campaign",
	module + "/internal/strata",
	module + "/internal/vuln",
	module + "/internal/report",
	module,
}

// clockFuncs are the time package's wall-clock reads. Duration
// arithmetic and formatting remain allowed.
var clockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Tick": true,
}

// randConstructors build explicitly seeded generators and are the only
// package-level math/rand functions allowed.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

func main() {
	paths := os.Args[1:]
	if len(paths) == 0 {
		paths = defaultPackages
	}
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lint:", err)
		os.Exit(2)
	}
	l := &loader{
		fset: token.NewFileSet(),
		std:  importer.ForCompiler(token.NewFileSet(), "source", nil),
		pkgs: make(map[string]*loaded),
		root: root,
	}
	var bad []string
	for _, path := range paths {
		v, err := l.lint(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lint: %s: %v\n", path, err)
			os.Exit(2)
		}
		bad = append(bad, v...)
	}
	sort.Strings(bad)
	for _, v := range bad {
		fmt.Println(v)
	}
	if len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "lint: %d determinism violations\n", len(bad))
		os.Exit(1)
	}
	fmt.Printf("lint: %d packages clean\n", len(paths))
}

// moduleRoot ascends from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above working directory")
		}
		dir = parent
	}
}

// loader typechecks module packages from source, memoizing results.
// It is itself the types.Importer for module-internal imports;
// standard-library imports go through the GOROOT source importer.
// Syntax and type info are memoized alongside the package so that a
// package which is both audited and imported by a later audited
// package resolves to one *types.Package instance — two instances
// would make identical types non-identical to the checker.
type loader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*loaded
	root string
}

// loaded is one typechecked module package with its audit inputs.
type loaded struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func (l *loader) Import(path string) (*types.Package, error) {
	if path == module || strings.HasPrefix(path, module+"/") {
		ld, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return ld.pkg, nil
	}
	return l.std.Import(path)
}

func (l *loader) dir(path string) string {
	if path == module {
		return l.root
	}
	return filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, module+"/")))
}

// load parses and typechecks one module package (non-test files only),
// returning its syntax and type info alongside the package. Each path
// is loaded at most once per process.
func (l *loader) load(path string) (*loaded, error) {
	if ld, ok := l.pkgs[path]; ok {
		return ld, nil
	}
	dir := l.dir(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	ld := &loaded{pkg: pkg, files: files, info: info}
	l.pkgs[path] = ld
	return ld, nil
}

// lint audits one package and returns its violations.
func (l *loader) lint(path string) ([]string, error) {
	ld, err := l.load(path)
	if err != nil {
		return nil, err
	}
	files, info := ld.files, ld.info
	var bad []string
	for _, f := range files {
		// Lines whose comments carry the order-free annotation.
		ordered := make(map[int]bool)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.Contains(c.Text, "lint:ordered") {
					ordered[l.fset.Position(c.Pos()).Line] = true
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				obj := info.Uses[n.Sel]
				fn, ok := obj.(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				// Methods (e.g. (*rand.Rand).Intn) carry a receiver
				// and are fine; only package-level calls are global
				// state.
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					return true
				}
				switch fn.Pkg().Path() {
				case "time":
					if clockFuncs[fn.Name()] {
						bad = append(bad, l.violation(n.Pos(), "wall-clock read time.%s breaks run-to-run reproducibility", fn.Name()))
					}
				case "math/rand", "math/rand/v2":
					if !randConstructors[fn.Name()] {
						bad = append(bad, l.violation(n.Pos(), "global math/rand source rand.%s is not seed-reproducible; use rand.New(rand.NewSource(seed))", fn.Name()))
					}
				}
			case *ast.RangeStmt:
				t := info.Types[n.X].Type
				if t == nil {
					return true
				}
				m, isMap := t.Underlying().(*types.Map)
				if !isMap {
					return true
				}
				if stratumKeyed(m) {
					// Unsuppressable: stratum order is stream identity.
					bad = append(bad, l.violation(n.Pos(), "range over a stratum map (strata.Key); walk the Partition's stable order instead — //lint:ordered does not apply"))
					return true
				}
				if pos, ok := floatAccum(n.Body, info); ok {
					// Unsuppressable: float addition is not associative,
					// so map order reaches the sum's bits even when the
					// contribution set is order-free.
					bad = append(bad, l.violation(pos, "float accumulation inside a map-range body is order-sensitive (float addition is not associative); sort the keys — //lint:ordered does not apply"))
					return true
				}
				line := l.fset.Position(n.Pos()).Line
				if ordered[line] || ordered[line-1] {
					return true
				}
				bad = append(bad, l.violation(n.Pos(), "map iteration order is randomized per run; sort keys, or annotate an order-free loop with //lint:ordered <why>"))
			}
			return true
		})
	}
	return bad, nil
}

// floatAccum reports the first float accumulation in a range body: a
// `sum += x` / `sum -= x` compound assign, or a `sum = sum + x` /
// `sum = x + sum` self-referencing assign, whose accumulator is a plain
// float-typed variable (index expressions are per-key updates, not
// cross-iteration accumulation, and stay with the general map-range
// rule).
func floatAccum(body *ast.BlockStmt, info *types.Info) (token.Pos, bool) {
	var pos token.Pos
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || !floatVar(id, info) {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN:
			pos, found = as.Pos(), true
		case token.ASSIGN:
			bin, ok := as.Rhs[0].(*ast.BinaryExpr)
			if !ok || (bin.Op != token.ADD && bin.Op != token.SUB) {
				return true
			}
			obj := info.Uses[id]
			if obj == nil {
				return true
			}
			for _, side := range []ast.Expr{bin.X, bin.Y} {
				if sid, ok := side.(*ast.Ident); ok && info.Uses[sid] == obj {
					pos, found = as.Pos(), true
				}
			}
		}
		return true
	})
	return pos, found
}

// floatVar reports whether an identifier names a float-typed variable.
func floatVar(id *ast.Ident, info *types.Info) bool {
	obj := info.Uses[id]
	if obj == nil {
		return false
	}
	b, ok := obj.Type().Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// stratumKeyed reports whether a map's key type is strata.Key — the
// equivalence-class identity of stratified campaigns, whose ordering is
// part of the record-stream contract.
func stratumKeyed(m *types.Map) bool {
	named, ok := m.Key().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == module+"/internal/strata" && obj.Name() == "Key"
}

func (l *loader) violation(pos token.Pos, format string, args ...any) string {
	p := l.fset.Position(pos)
	rel, err := filepath.Rel(l.root, p.Filename)
	if err != nil {
		rel = p.Filename
	}
	return fmt.Sprintf("%s:%d: %s", rel, p.Line, fmt.Sprintf(format, args...))
}
