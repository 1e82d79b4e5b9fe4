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

// sourceIndex parses every non-test Go file outside bench/ and testdata/:
// the calls by the callee's last name, the go statements and the imports
// by directory, and the function declarations by "dir:Recv.Name".
type sourceIndex struct {
	fset    *token.FileSet
	calls   map[string][]callSite
	spawns  map[string][]callSite
	imports map[string][]string
	funcs   map[string]*ast.FuncDecl
}

func indexSource(t *testing.T) *sourceIndex {
	t.Helper()
	ix := &sourceIndex{
		fset:    token.NewFileSet(),
		calls:   make(map[string][]callSite),
		spawns:  make(map[string][]callSite),
		imports: make(map[string][]string),
		funcs:   make(map[string]*ast.FuncDecl),
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
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
}
