package scout_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"scout"
)

// callSite is one call in the module's non-test Go outside bench/.
type callSite struct {
	pos  token.Position
	fn   string // enclosing function, "Name" or "Recv.Name"
	args int
}

func (c callSite) String() string { return c.pos.String() }

// oracleDir is the package of test oracles: code only tests may import.
var oracleDir = filepath.Join("internal", "oracle")

// sourceIndex parses every non-test Go file outside testdata/: the
// imports by directory, and every identifier's enclosing function. Outside
// bench/ it also keeps the calls by the callee's last name, the go
// statements, and the function declarations by "dir:Recv.Name".
type sourceIndex struct {
	fset    *token.FileSet
	calls   map[string][]callSite
	spawns  map[string][]callSite
	imports map[string][]string
	funcs   map[string]*ast.FuncDecl
	// refs maps an identifier to the function declarations it appears in
	// (nil at package scope), over every non-test file but the oracle's.
	// Declared names — a function's own, fields and parameters — are not
	// references; a method an interface names is.
	refs map[string][]*ast.FuncDecl
}

func indexSource(t *testing.T) *sourceIndex {
	t.Helper()
	ix := &sourceIndex{
		fset:    token.NewFileSet(),
		calls:   make(map[string][]callSite),
		spawns:  make(map[string][]callSite),
		imports: make(map[string][]string),
		funcs:   make(map[string]*ast.FuncDecl),
		refs:    make(map[string][]*ast.FuncDecl),
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(ix.fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		for _, imp := range file.Imports {
			ix.imports[dir] = append(ix.imports[dir], strings.Trim(imp.Path.Value, `"`))
		}
		if dir != oracleDir {
			ix.indexRefs(file)
		}
		if strings.HasPrefix(path, "bench"+string(filepath.Separator)) {
			return nil
		}
		for _, decl := range file.Decls {
			name := "package scope"
			if fd, ok := decl.(*ast.FuncDecl); ok {
				name = fd.Name.Name
				if fd.Recv != nil {
					recv := fd.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						name = id.Name + "." + name
					}
				}
				ix.funcs[dir+":"+name] = fd
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					ix.spawns[dir] = append(ix.spawns[dir], callSite{ix.fset.Position(g.Pos()), name, 0})
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				var callee string
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					callee = fun.Name
				case *ast.SelectorExpr:
					callee = fun.Sel.Name
				}
				ix.calls[callee] = append(ix.calls[callee], callSite{ix.fset.Position(call.Pos()), name, len(call.Args)})
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// indexRefs records every identifier of file that is not a declared name.
// A method an interface names is the exception: calls through the
// interface dispatch to every method of that name.
func (ix *sourceIndex) indexRefs(file *ast.File) {
	declared := make(map[*ast.Ident]bool)
	dispatch := make(map[*ast.Ident]bool)
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			declared[n.Name] = true
		case *ast.InterfaceType:
			for _, m := range n.Methods.List {
				for _, id := range m.Names {
					dispatch[id] = true
				}
			}
		case *ast.Field:
			for _, id := range n.Names {
				declared[id] = !dispatch[id]
			}
		}
		return true
	})
	for _, decl := range file.Decls {
		fd, _ := decl.(*ast.FuncDecl)
		ast.Inspect(decl, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				ix.refs[id.Name] = append(ix.refs[id.Name], fd)
			}
			return true
		})
	}
}

// referenced reports whether fd's name appears outside every function of
// that name. A function is not its own caller, and neither is a namesake:
// a method forwarding to a same-named function does not make either used.
// Names are matched, not types, so a method named like an unrelated one
// still counts as referenced — a Patch.Empty would pass on the calls of
// stream.Batch.Empty.
func (ix *sourceIndex) referenced(fd *ast.FuncDecl) bool {
	for _, in := range ix.refs[fd.Name.Name] {
		if in == nil || in.Name.Name != fd.Name.Name {
			return true
		}
	}
	return false
}

// sites returns the calls a pattern names: "Name" is any call of that
// name, "Name()" one that passes no arguments.
func (ix *sourceIndex) sites(pattern string) []callSite {
	name, noArgs := strings.CutSuffix(pattern, "()")
	var out []callSite
	for _, c := range ix.calls[name] {
		if !noArgs || c.args == 0 {
			out = append(out, c)
		}
	}
	return out
}

// unreferencedExports are the exported functions a production package may
// keep with no caller outside tests, by "dir:Recv.Name", or by bare method
// name for any receiver.
var unreferencedExports = map[string]string{
	"String":      "fmt calls it through fmt.Stringer",
	"Error":       "callers reach it through the error interface",
	"MarshalJSON": "encoding/json calls it through json.Marshaler",

	".:Session.Invalidate": "the documented way to drop a switch's warm state",

	filepath.Join("internal", "risk") + ":Model.EnsureElement": "goes with model marking (ROADMAP 7(a))",
	filepath.Join("internal", "risk") + ":Model.ResetFailures": "goes with model marking (ROADMAP 7(a))",

	filepath.Join("internal", "eval") + ":AccuracyResult.Curve":        "the accuracy goldens read it (ROADMAP 3(a))",
	filepath.Join("internal", "eval") + ":AccuracyCurve.MeanRecall":    "the accuracy goldens read it (ROADMAP 3(a))",
	filepath.Join("internal", "eval") + ":AccuracyCurve.MeanPrecision": "the accuracy goldens read it (ROADMAP 3(a))",
}

// TestArchitecture holds the design's invariants over the non-test Go
// outside bench/. Each is a property of the design, not a list of names
// that must not come back.
func TestArchitecture(t *testing.T) {
	ix := indexSource(t)

	// The pipeline is written once: Session.run is the only orchestration,
	// so every stage has one call site.
	for _, stage := range []string{"assemble", "buildSharedBase", "startRiskModels"} {
		if sites := ix.sites(stage); len(sites) != 1 {
			t.Errorf("%s has %d call sites, want 1: %v", stage, len(sites), sites)
		}
	}

	// fanOut is the one fan-out: besides the controller-model build that
	// startRiskModels runs beside the base build, it is the only place the
	// root package starts a goroutine. Its workers share nothing but slots
	// their indices own, so the package needs no atomic.
	for _, g := range ix.spawns["."] {
		if g.fn != "Analyzer.fanOut" && g.fn != "Analyzer.startRiskModels" {
			t.Errorf("%s: %s starts a goroutine; the fan-out is Analyzer.fanOut", g.pos, g.fn)
		}
	}
	for _, imp := range ix.imports["."] {
		if imp == "sync/atomic" {
			t.Error("the root package imports sync/atomic")
		}
	}

	// Session.run takes the state and whether it was read live, and no
	// hint: sameness is recognised by the caches, never told by a caller.
	if fd := ix.funcs[".:Session.run"]; fd == nil {
		t.Error("Session.run is gone")
	} else {
		var sig bytes.Buffer
		printer.Fprint(&sig, ix.fset, fd.Type)
		if want := "func(st State, live bool) (*Report, error)"; sig.String() != want {
			t.Errorf("Session.run is %s, want %s", sig.String(), want)
		}
	}

	// A caller picks the workers, the observation source and the warm
	// store; everything else is the pipeline's own constant.
	var fields []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(scout.AnalyzerOptions{})) {
		fields = append(fields, f.Name)
	}
	sort.Strings(fields)
	if want := []string{"UseProbes", "WarmStore", "Workers"}; !reflect.DeepEqual(fields, want) {
		t.Errorf("AnalyzerOptions fields are %v, want %v", fields, want)
	}

	// A probe round shares nothing, so probing needs no lock or atomic.
	for _, imp := range ix.imports[filepath.Join("internal", "probe")] {
		if imp == "sync" || imp == "sync/atomic" {
			t.Errorf("internal/probe imports %s", imp)
		}
	}

	// A rule is a value whose provenance is never written after
	// construction, so layers share rules by assignment. The one copy is
	// fabric.New's of the caller's policy.
	for _, c := range ix.sites("Clone()") {
		if c.fn != "New" || c.pos.Filename != filepath.Join("internal", "fabric", "fabric.go") {
			t.Errorf("%s: .Clone() in %s; the only copy is fabric.New's", c.pos, c.fn)
		}
	}

	// These survive only because bench/ still compiles against them: a
	// caller anywhere else turns a shim back into an API.
	for _, shim := range []string{"BuildAnnotatedSwitchModel", "BuildControllerModelParallel",
		"CollectMatches", "SortMatches", "NumMatches()", "NewCheckerSized", "Compact()"} {
		for _, c := range ix.sites(shim) {
			t.Errorf("%s: %s calls the bench-only shim %s", c.pos, c.fn, shim)
		}
	}

	// Oracles are for tests: a production package that imports them ships
	// a second engine.
	for dir, imps := range ix.imports {
		for _, imp := range imps {
			if imp == "scout/internal/oracle" {
				t.Errorf("%s imports scout/internal/oracle, which only tests may", dir)
			}
		}
	}

	// A production package holds what production calls: every exported
	// function under internal/ or the root is named outside its own body
	// by some non-test file (bench/, cmd/ and examples/ count).
	keys := make([]string, 0, len(ix.funcs))
	for key := range ix.funcs {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		fd := ix.funcs[key]
		dir, name, _ := strings.Cut(key, ":")
		if dir == oracleDir || (dir != "." && !strings.HasPrefix(dir, "internal"+string(filepath.Separator))) {
			continue
		}
		if !fd.Name.IsExported() || ix.referenced(fd) {
			continue
		}
		if _, ok := unreferencedExports[key]; ok {
			continue
		}
		if _, ok := unreferencedExports[fd.Name.Name]; ok && fd.Recv != nil {
			continue
		}
		t.Errorf("%s: %s has no caller outside tests", ix.fset.Position(fd.Pos()), name)
	}
}
