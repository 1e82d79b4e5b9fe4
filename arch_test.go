package scout_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/fstest"

	"scout"
)

// oracleDir is the package of test oracles: code only tests may import,
// whose uses keep nothing alive.
const oracleDir = "internal/oracle"

// use is one identifier resolving to an object, and the function declared
// around it (nil at package scope). A package-level `var X = F` re-exports
// F: that use of F stands for X's uses.
type use struct {
	pos token.Position
	in  *types.Func
	as  types.Object
}

// moduleIndex type-checks every non-test package of a module outside
// testdata/ from source and keys each use by the object it resolves to.
// It is the packages' one importer: a module path is checked once, and the
// standard library comes from importer.Default.
type moduleIndex struct {
	module string
	fset   *token.FileSet
	files  map[string][]*ast.File    // by directory
	pkgs   map[string]*types.Package // by directory
	info   *types.Info
	std    types.Importer
	// funcs, uses and spawns leave out the oracle's files.
	funcs  []*types.Func // every function declaration, in file order
	uses   map[types.Object][]use
	spawns map[string][]use // go statements by directory
}

func indexModule(t *testing.T, fsys fs.FS, module string) *moduleIndex {
	t.Helper()
	ix := &moduleIndex{
		module: module,
		fset:   token.NewFileSet(),
		files:  make(map[string][]*ast.File),
		pkgs:   make(map[string]*types.Package),
		info:   &types.Info{Defs: make(map[*ast.Ident]types.Object), Uses: make(map[*ast.Ident]types.Object)},
		std:    importer.Default(),
		uses:   make(map[types.Object][]use),
		spawns: make(map[string][]use),
	}
	err := fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		file, err := parser.ParseFile(ix.fset, p, src, 0)
		ix.files[path.Dir(p)] = append(ix.files[path.Dir(p)], file)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	dirs := make([]string, 0, len(ix.files))
	for dir := range ix.files {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		if _, err := ix.Import(path.Join(module, dir)); err != nil {
			t.Fatal(err)
		}
		if dir == oracleDir {
			continue
		}
		for _, file := range ix.files[dir] {
			for _, decl := range file.Decls {
				var in *types.Func
				reexports := make(map[*ast.Ident]types.Object)
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					in = ix.info.Defs[decl.Name].(*types.Func)
					ix.funcs = append(ix.funcs, in)
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) == len(vs.Names) {
							for i, v := range vs.Values {
								if sel, ok := v.(*ast.SelectorExpr); ok {
									v = sel.Sel
								}
								if id, ok := v.(*ast.Ident); ok {
									reexports[id] = ix.info.Defs[vs.Names[i]]
								}
							}
						}
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.GoStmt:
						ix.spawns[dir] = append(ix.spawns[dir], use{ix.fset.Position(n.Pos()), in, nil})
					case *ast.Ident:
						if obj := ix.info.Uses[n]; obj != nil {
							if fn, ok := obj.(*types.Func); ok {
								obj = fn.Origin()
							}
							ix.uses[obj] = append(ix.uses[obj], use{ix.fset.Position(n.Pos()), in, reexports[n]})
						}
					}
					return true
				})
			}
		}
	}
	return ix
}

// dirOf returns the directory of an import path, or false for a path
// outside the module.
func (ix *moduleIndex) dirOf(p string) (string, bool) {
	if p == ix.module {
		return ".", true
	}
	return strings.CutPrefix(p, ix.module+"/")
}

// Import type-checks a module package from source on its first import and
// hands any other path to the standard library's importer.
func (ix *moduleIndex) Import(p string) (*types.Package, error) {
	dir, ok := ix.dirOf(p)
	if !ok {
		return ix.std.Import(p)
	}
	if pkg := ix.pkgs[dir]; pkg != nil {
		return pkg, nil
	}
	conf := types.Config{Importer: ix}
	pkg, err := conf.Check(p, ix.fset, ix.files[dir], ix.info)
	ix.pkgs[dir] = pkg
	return pkg, err
}

// lookup returns the function a key names: "dir:Name" or "dir:Recv.Name".
func (ix *moduleIndex) lookup(t *testing.T, key string) *types.Func {
	t.Helper()
	dir, name, _ := strings.Cut(key, ":")
	var obj types.Object
	if pkg := ix.pkgs[dir]; pkg != nil {
		recv, method, isMethod := strings.Cut(name, ".")
		obj = pkg.Scope().Lookup(name)
		if tn := pkg.Scope().Lookup(recv); isMethod && tn != nil {
			obj, _, _ = types.LookupFieldOrMethod(tn.Type(), true, pkg, method)
		}
	}
	fn, _ := obj.(*types.Func)
	if fn == nil {
		t.Errorf("%s is gone", key)
	}
	return fn
}

// key is fn's "dir:Name" or "dir:Recv.Name".
func (ix *moduleIndex) key(fn *types.Func) string {
	dir, _ := ix.dirOf(fn.Pkg().Path())
	return dir + ":" + funcName(fn)
}

func funcName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Name()
	}
	typ := recv.Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	if named, ok := types.Unalias(typ).(*types.Named); ok {
		return named.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// unused returns, in source order, what the module's own code does not
// need from its root, internal/, cmd/ and examples/ packages (the oracle
// aside): a function or method that no non-test file uses outside its own
// body and no interface call selects, and an interface method nothing
// calls through its interface. A command's main is its own use. Only the
// uses counts accepts count.
func (ix *moduleIndex) unused(counts func(use) bool) []*types.Func {
	counted := func(u use) bool {
		if u.as != nil {
			return slices.ContainsFunc(ix.uses[u.as], counts)
		}
		return counts(u)
	}

	var concrete []types.Type // a pointer to every non-interface type declared
	var ifaceMethods []*types.Func
	inScope := make(map[*types.Package]bool)
	for dir, pkg := range ix.pkgs {
		inScope[pkg] = dir == "." || strings.HasPrefix(dir, "internal/") && dir != oracleDir ||
			strings.HasPrefix(dir, "cmd/") || strings.HasPrefix(dir, "examples/")
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			iface, ok := tn.Type().Underlying().(*types.Interface)
			if !ok {
				concrete = append(concrete, types.NewPointer(tn.Type()))
			} else if inScope[pkg] {
				for i := 0; i < iface.NumExplicitMethods(); i++ {
					ifaceMethods = append(ifaceMethods, iface.ExplicitMethod(i))
				}
			}
		}
	}

	// A call through an interface selects the method of every type that
	// implements it.
	dispatched := make(map[types.Object]bool)
	for obj, uses := range ix.uses {
		sig, ok := obj.Type().(*types.Signature)
		if !ok || sig.Recv() == nil || !slices.ContainsFunc(uses, counted) {
			continue
		}
		iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		for _, typ := range concrete {
			if types.Implements(typ, iface) {
				sel, _, _ := types.LookupFieldOrMethod(typ, false, obj.Pkg(), obj.Name())
				dispatched[sel] = true
			}
		}
	}

	var out []*types.Func
	for _, fn := range ix.funcs {
		if !inScope[fn.Pkg()] || dispatched[fn] || fn.Pkg().Name() == "main" && fn.Name() == "main" {
			continue
		}
		used := false
		for _, u := range ix.uses[fn] {
			used = used || u.in != fn && counted(u)
		}
		if !used {
			out = append(out, fn)
		}
	}
	for _, m := range ifaceMethods {
		if !slices.ContainsFunc(ix.uses[m], counted) {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

func anyUse(use) bool { return true }

func outsideBench(u use) bool { return !strings.HasPrefix(u.pos.Filename, "bench/") }

// benchOnly returns, in source order, what only bench/ keeps: the
// functions unused reports once bench/'s uses stop counting, less those it
// reports anyway.
func (ix *moduleIndex) benchOnly() []*types.Func {
	unused := make(map[*types.Func]bool)
	for _, fn := range ix.unused(anyUse) {
		unused[fn] = true
	}
	var out []*types.Func
	for _, fn := range ix.unused(outsideBench) {
		if !unused[fn] {
			out = append(out, fn)
		}
	}
	return out
}

// unreferencedExports are the functions a production package may keep with
// no use outside tests, by "dir:Recv.Name", or by bare method name for any
// receiver.
var unreferencedExports = map[string]string{
	"String":      "fmt calls it through fmt.Stringer",
	"MarshalJSON": "encoding/json calls it through json.Marshaler",

	"cmd/scout:faultFlags.Set": "flag calls it through flag.Value",

	".:Analyzer.AnalyzeState": "README documents it for state collected outside the simulator",
}

// TestArchitecture holds the design's invariants over the module's
// non-test Go. Each is a property of the design, not a list of names that
// must not come back.
func TestArchitecture(t *testing.T) {
	ix := indexModule(t, os.DirFS("."), "scout")

	// The pipeline is written once: Session.run is the only orchestration,
	// so every stage has one call site. Outside bench/ that holds for the
	// check too: an experiment or an example reads a Report instead of
	// running it, and the BDD checker is a bench shim. Marking has the
	// switch report, whose marks the controller view joins, and besides it
	// the simulated §VI figures, which inject their faults at the model
	// level, as §VI-A does: eval's one controller injector and Figure 8's
	// switch. The annotated build and the patch that bench/ calls mark
	// through it too. Correlation's second caller is the bench shim
	// Engine.Correlate, which forwards, as the base build's second caller,
	// the bench shim NewBase, does. A deployment's risk model is built
	// where it is first needed and read from there: a session builds it
	// when it resolves a new deployment, and the §VI harness when it
	// builds an environment; the bench shim BuildControllerModelParallel
	// forwards.
	for key, callers := range map[string][]string{
		".:Analyzer.assemble":          {".:Session.run"},
		"internal/equiv:NewBaseWith":   {".:Session.loadOrBuildBaseLocked", "internal/equiv:NewBase"},
		"internal/equiv:Check":         {".:Session.run"},
		"internal/correlate:Correlate": {".:Analyzer.assemble", "internal/correlate:Engine.Correlate"},
		"internal/risk:MarkSwitch": {".:buildSwitchReport", "internal/eval:Env.markMissing", "internal/eval:SwitchModelAccuracy",
			"internal/risk:AugmentControllerModelPatch", "internal/risk:BuildAnnotatedSwitchModel"},
		"internal/risk:BuildControllerModel": {".:Session.resolveLocked", "internal/eval:NewEnv",
			"internal/risk:BuildControllerModelParallel"},
	} {
		var sites []string
		for _, u := range ix.uses[ix.lookup(t, key)] {
			if strings.HasPrefix(u.pos.Filename, "bench/") {
				continue
			}
			site := u.pos.String() // a package-level use
			if u.in != nil {
				site = ix.key(u.in)
			}
			sites = append(sites, site)
		}
		sort.Strings(sites)
		if !slices.Equal(sites, callers) {
			t.Errorf("%s is called outside bench/ in %v, want once in each of %v", key, sites, callers)
		}
	}

	// Outside bench/ a rule list is hashed only where a store file is read
	// or written: a new deployment's fingerprint when a session resolves it,
	// and a verdict's lists when the run that loads its file adopts it or a
	// save writes it. A run's partition compares lists and hashes none.
	for key, want := range map[string][]string{
		"internal/equiv:Fingerprint": {".:Session.adoptVerdictsLocked", ".:Session.saveVerdictsLocked",
			"internal/equiv:DeploymentFingerprints"},
		"internal/equiv:DeploymentFingerprints": {".:Session.resolveLocked"},
	} {
		var in []string
		for _, u := range ix.uses[ix.lookup(t, key)] {
			if strings.HasPrefix(u.pos.Filename, "bench/") {
				continue
			}
			site := u.pos.String() // a package-level use
			if u.in != nil {
				site = ix.key(u.in)
			}
			in = append(in, site)
		}
		slices.Sort(in)
		if in = slices.Compact(in); !slices.Equal(in, want) {
			t.Errorf("%s is called outside bench/ in %v, want only in %v", key, in, want)
		}
	}

	// Outside bench/ (and the oracle, which the index leaves out) one
	// function starts goroutines: fanout.Run, the module's one fan-out,
	// whose workers claim the next index. Everything else runs on its
	// caller's goroutine: a store save is written before it returns, and the
	// model build and the hashing run in line. The claim counter is the
	// module's one atomic: no other package imports sync/atomic.
	run := ix.lookup(t, "internal/fanout:Run")
	spawners := 0
	for dir, gs := range ix.spawns {
		if dir == "bench" || strings.HasPrefix(dir, "bench/") {
			continue
		}
		for _, g := range gs {
			if g.in != run {
				t.Errorf("%s: %s starts a goroutine; only fanout.Run may", g.pos, funcName(g.in))
			}
			spawners++
		}
	}
	if spawners == 0 {
		t.Error("fanout.Run starts no goroutine")
	}
	for dir, pkg := range ix.pkgs {
		if dir == "internal/fanout" || dir == oracleDir || dir == "bench" || strings.HasPrefix(dir, "bench/") {
			continue
		}
		for _, imp := range pkg.Imports() {
			if imp.Path() == "sync/atomic" {
				t.Errorf("%s imports sync/atomic; only internal/fanout may", dir)
			}
		}
	}

	// Session.run takes the state alone, with no hint: sameness is
	// recognised by the caches, never told by a caller, and both observation
	// sources read the state's T lists.
	if run := ix.lookup(t, ".:Session.run"); run != nil {
		sig := types.TypeString(run.Type(), types.RelativeTo(run.Pkg()))
		if want := "func(st State) (*Report, error)"; sig != want {
			t.Errorf("Session.run is %s, want %s", sig, want)
		}
	}

	// A caller picks the workers and the warm store; everything else is
	// the pipeline's own constant.
	var fields []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(scout.AnalyzerOptions{})) {
		fields = append(fields, f.Name)
	}
	sort.Strings(fields)
	if want := []string{"WarmStore", "Workers"}; !reflect.DeepEqual(fields, want) {
		t.Errorf("AnalyzerOptions fields are %v, want %v", fields, want)
	}

	// A store save is written before it returns, so the store has no
	// writer to start and no queue to guard.
	for _, imp := range ix.pkgs["internal/store"].Imports() {
		if imp.Path() == "sync" || imp.Path() == "sync/atomic" {
			t.Errorf("internal/store imports %s", imp.Path())
		}
	}

	// A rule is a value whose provenance is never written after
	// construction, so layers share rules by assignment. The one copy is
	// fabric.New's of the caller's policy.
	newFabric := ix.lookup(t, "internal/fabric:New")
	for _, fn := range ix.funcs {
		if fn.Name() != "Clone" {
			continue
		}
		for _, u := range ix.uses[fn] {
			if u.in != newFabric && !strings.HasPrefix(u.pos.Filename, "bench/") {
				t.Errorf("%s: %s in %s; the only copy is fabric.New's", u.pos, ix.key(fn), funcName(u.in))
			}
		}
	}

	// These survive only because bench/ still compiles against them
	// (ROADMAP 1(b)). The list is exactly what bench/ alone keeps: a caller
	// anywhere else turns a shim back into an API, and a function only
	// bench/ keeps is a shim whether or not it is listed. alias.go
	// re-exports stream.New as NewEventQueue, whose users stand for its.
	// Session.Stats is the sum of the runs' traces, which every other
	// reader takes from its report (ROADMAP 38).
	shims := map[string]bool{}
	for _, key := range []string{"internal/equiv:NewBase", "internal/equiv:CollectMatches", "internal/equiv:SemanticsFingerprint",
		"internal/equiv:SortMatches", "internal/equiv:Base.NumMatches", "internal/equiv:Base.NewCheckerSized",
		"internal/equiv:Base.Size", "internal/equiv:Base.NumSemantics",
		"internal/equiv:Checker.Compact", "internal/equiv:Checker.DeltaSize", "internal/equiv:Checker.Reset", "internal/equiv:Checker.Stats",
		"internal/equiv:Checker.Check", "internal/equiv:Base.NewChecker",
		"internal/bdd:CacheStats.Hits", "internal/risk:BuildAnnotatedSwitchModel",
		"internal/risk:BuildControllerModelParallel", "internal/risk:AugmentControllerModelPatch", "internal/risk:Patch.Apply", "internal/store:Store.Flush", "internal/store:Store.Close",
		".:Session.ApplyEvents", ".:Session.Stats", ".:Session.AnalyzeEpoch", "internal/collect:New", "internal/collect:Epoch.RuleCount",
		"internal/collect:Collector.SnapshotSwitches", "internal/collect:DirtySwitches",
		"internal/stream:New", "internal/stream:Queue.Push", "internal/stream:Queue.Cut", "internal/stream:Queue.Stats",
		"internal/bdd:Manager.Size", "internal/bdd:Manager.Or", "internal/bdd:Manager.Not", "internal/bdd:Manager.Cube", "internal/bdd:Manager.CompactDelta",
		"internal/faultlog:FaultLog.Len", "internal/fabric:Switch.TCAM", "internal/tcam:TCAM.Install", "internal/tcam:TCAM.Remove",
		"internal/tcam:TCAM.Keys", "internal/localize:StatsSnapshot", "internal/localize:EngineStats.Delta",
		"internal/correlate:NewEngine", "internal/correlate:Engine.Correlate"} {
		shims[key] = true
	}
	for _, fn := range ix.benchOnly() {
		if key := ix.key(fn); !shims[key] && !ix.allowed(unreferencedExports, fn) {
			t.Errorf("%s: %s is kept only by bench/; list it with the shims", ix.fset.Position(fn.Pos()), key)
		} else {
			delete(shims, key)
		}
	}
	for key := range shims {
		ix.lookup(t, key)
		t.Errorf("the shim %s has a use outside bench/, or none", key)
	}

	// The root package is one way in: alias.go re-exports a name only for
	// a caller outside the package, or because the package's API takes or
	// returns its type. Anything else is reached through the internal
	// package that defines it.
	for _, name := range ix.unneededAliases() {
		t.Errorf("alias.go declares %s, which no caller outside the package names and no exported API carries", name)
	}

	// Oracles are for tests: a production package that imports them ships
	// a second engine.
	for dir, pkg := range ix.pkgs {
		for _, imp := range pkg.Imports() {
			if imp.Path() == "scout/"+oracleDir {
				t.Errorf("%s imports %s, which only tests may", dir, imp.Path())
			}
		}
	}

	// A production package holds what production calls, and the
	// allowlist excuses what it does not: each entry at least one function.
	for _, fn := range ix.unused(anyUse) {
		if !ix.allowed(unreferencedExports, fn) {
			t.Errorf("%s: %s has no use outside tests", ix.fset.Position(fn.Pos()), funcName(fn))
		}
	}
	for _, key := range ix.stale(unreferencedExports) {
		t.Errorf("unreferencedExports lists %s, which excuses no function; delete the entry", key)
	}
}

// unneededAliases returns, sorted, the names the root package's alias.go
// declares that no caller needs. A name is needed when non-test Go outside
// the root package names it, or, for a type, when it is the type of a
// field, parameter or result: of an exported field of the root package's
// own exported types, or in the signature of an exported function or
// method the root package declares or of a function alias.go re-exports
// and keeps. Element, key and pointer types count as the type they hold.
func (ix *moduleIndex) unneededAliases() []string {
	outside := func(obj types.Object) bool {
		return slices.ContainsFunc(ix.uses[obj], func(u use) bool { return path.Dir(u.pos.Filename) != "." })
	}
	carried := make(map[types.Object]bool)
	var walk func(types.Type)
	walk = func(t types.Type) {
		switch t := types.Unalias(t).(type) {
		case *types.Named:
			carried[t.Origin().Obj()] = true
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case interface{ Elem() types.Type }: // a pointer, slice, array or channel
			walk(t.Elem())
		case *types.Signature:
			for _, vars := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < vars.Len(); i++ {
					walk(vars.At(i).Type())
				}
			}
		}
	}

	scope := ix.pkgs["."].Scope()
	var declared []types.Object
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if ix.fset.Position(obj.Pos()).Filename == "alias.go" {
			declared = append(declared, obj)
			if _, fn := obj.Type().(*types.Signature); fn && outside(obj) {
				walk(obj.Type())
			}
			continue
		}
		switch obj := obj.(type) {
		case *types.Func:
			if obj.Exported() {
				walk(obj.Type())
			}
		case *types.TypeName:
			typ, ok := obj.Type().(*types.Named)
			if !ok || !obj.Exported() || obj.IsAlias() {
				continue
			}
			if st, ok := typ.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if st.Field(i).Exported() {
						walk(st.Field(i).Type())
					}
				}
			}
			for i := 0; i < typ.NumMethods(); i++ {
				if typ.Method(i).Exported() {
					walk(typ.Method(i).Type())
				}
			}
		}
	}

	var out []string
	for _, obj := range declared {
		_, isType := obj.(*types.TypeName)
		typ, _ := types.Unalias(obj.Type()).(*types.Named)
		if !outside(obj) && !(isType && typ != nil && carried[typ.Origin().Obj()]) {
			out = append(out, obj.Name())
		}
	}
	return out
}

// allowed reports whether allow names fn: by its key, or a method by its
// bare name.
func (ix *moduleIndex) allowed(allow map[string]string, fn *types.Func) bool {
	_, byKey := allow[ix.key(fn)]
	_, byName := allow[fn.Name()]
	return byKey || byName && fn.Type().(*types.Signature).Recv() != nil
}

// stale returns, sorted, the entries of allow that excuse nothing: no
// function that the rule of unused or the bench-only set reports is named
// by one.
func (ix *moduleIndex) stale(allow map[string]string) []string {
	reported := append(ix.unused(anyUse), ix.benchOnly()...)
	var out []string
	for key := range allow {
		one := map[string]string{key: allow[key]}
		if !slices.ContainsFunc(reported, func(fn *types.Func) bool { return ix.allowed(one, fn) }) {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// TestArchitectureUnused runs the rule of unused, the bench-only set and
// alias.go's rule over a fixture module, with and without the type
// checker's alias nodes.
func TestArchitectureUnused(t *testing.T) {
	fixture := fstest.MapFS{
		"alias.go": {Data: []byte(`package fix

type (
	Named  = named  // cmd/fix names it
	Field  = field  // S.F's keys point to one
	Param  = param  // Reexported takes one
	Result = result // S.Get returns one
	Orphan = orphan // only Dropped, which nothing names, takes one
	Prose  = named  // Named's callers do not name it
)

var (
	Reexported = OnlyBench // kept by bench/ alone
	Dropped    = drop
)
`)},
		"fix.go": {Data: []byte(`package fix

type A struct{}

func (A) Len() int { return 0 } // only B's Len is used

type B struct{}

func (B) Len() int { return 1 }

type I interface {
	M()
	N() // nothing calls it through I
}

type J = I

type T struct{}

func (T) M() {} // reached only through J
func (T) N() {}

func Use(j J) int {
	j.M()
	return B{}.Len()
}

func OnlyBench(*param) {}

type named struct{}
type field struct{}
type param struct{}
type result struct{}
type orphan struct{}

type S struct{ F map[*field]bool }

func (S) Get() result { return result{} }

func drop(orphan) {} // reached only through Dropped, which nothing names
`)},
		"bench/main.go": {Data: []byte(`package main

import "fix"

func main() { fix.Reexported(nil) }
`)},
		"cmd/fix/main.go": {Data: []byte(`package main

import (
	"flag"
	"fix"
)

type list []string // flag calls its methods through flag.Value

func (l *list) String() string { return "" }

func (l *list) Set(v string) error { *l = append(*l, v); return nil }

func helper() {} // only a test would call it

func main() { // its own use
	var l list
	var n fix.Named
	flag.Var(&l, "l", "")
	fix.Use(fix.T{})
	_, _ = n, fix.S{}.Get()
}
`)},
	}
	for _, mode := range []string{"0", "1"} {
		t.Run("gotypesalias="+mode, func(t *testing.T) {
			t.Setenv("GODEBUG", "gotypesalias="+mode)
			ix := indexModule(t, fixture, "fix")
			j := ix.pkgs["."].Scope().Lookup("J").Type()
			if _, alias := j.(*types.Alias); alias != (mode == "1") {
				t.Errorf("J is a %T under gotypesalias=%s", j, mode)
			}
			// A command's main is exempt, and String is allowed by name;
			// Set is not, so the one flag.Value cmd/scout keeps is
			// allowed by its key. An entry excuses what the rule of unused
			// or the bench-only set reports; one that excuses nothing, as
			// a deleted function's would, is stale.
			allow := map[string]string{"String": "fmt calls it", ".:OnlyBench": "bench/ keeps it", "cmd/fix:gone": "deleted"}
			var got, kept []string
			for _, fn := range ix.unused(anyUse) {
				got = append(got, funcName(fn))
				if !ix.allowed(allow, fn) {
					kept = append(kept, funcName(fn))
				}
			}
			if stale := ix.stale(allow); !reflect.DeepEqual(stale, []string{"cmd/fix:gone"}) {
				t.Errorf("stale = %v, want the one entry that names no reported function", stale)
			}
			if want := []string{"list.String", "list.Set", "helper", "A.Len", "I.N", "T.N", "drop"}; !reflect.DeepEqual(got, want) {
				t.Errorf("unused = %v, want %v", got, want)
			}
			if want := []string{"list.Set", "helper", "A.Len", "I.N", "T.N", "drop"}; !reflect.DeepEqual(kept, want) {
				t.Errorf("unused and not allowed = %v, want %v", kept, want)
			}
			if got := ix.benchOnly(); len(got) != 1 || got[0].Name() != "OnlyBench" {
				t.Errorf("bench-only = %v, want OnlyBench", got)
			}
			if got, want := ix.unneededAliases(), []string{"Dropped", "Orphan", "Prose"}; !reflect.DeepEqual(got, want) {
				t.Errorf("unneeded aliases = %v, want %v", got, want)
			}
		})
	}
}
