package fftgrad

// The caller gate: every exported function, method, type, const and var
// declared under internal/ must be used by at least one non-test file of
// the module (cmd/, internal/, examples/ and bench/*.go), or sit on the
// allowlist below with the reason it stays. Uses are resolved by go/types
// over the module's packages type-checked from source, so a method counts
// as called only through its own receiver type — directly, promoted
// through an embedding, or dispatched by a call through an interface the
// type implements — and never because a live method elsewhere shares its
// name.

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// callerAllow is keyed "pkg.Name" or "pkg.Type.Method". Every reason is
// one of four kinds: interface (a method the standard library calls
// through an interface), reference (an implementation or decoder half
// that tests compare a fast path or an encoder against), probe (a
// read-out or fixture builder for tests of behaviour that survives) and
// hook (the one test hook).
var callerAllow = map[string]string{
	"serve.Millis.UnmarshalJSON": "interface: encoding/json calls it for every *_ms Spec key",
	"serve.Millis.MarshalJSON":   "interface: encoding/json calls it when a Spec is encoded",
	"comm.OpError.Unwrap":        "interface: errors.Is/As reach ErrPeerDown and ErrTimeout through it",
	"chaos.Config.String":        "interface: fmt prints cmd/trainer's chaos schedule line through it",
	"trace.Reason.String":        "interface: fmt prints the flight recorder's dump line through it",

	"f16.FromFloat32":          "reference: the scalar encoder TestRoundWiden* compare the rounding kernels against",
	"f16.Bits.Float32":         "reference: the scalar decoder half of the same comparison",
	"pack.Sparse.UnpackSerial": "reference: the serial scatter TestUnpack* compare the parallel Unpack against",
	"pack.DecodeBitmapRLE":     "reference: decoder half of EncodeBitmapRLE, held to it by FuzzDecodeBitmapRLE",
	"quant.NewRangeQuantizer":  "reference: the untuned quantizer the tuned constructors are compared against",
	"perfmodel.SavedCost":      "reference: Eq. 3, the identity TestEquationConsistency holds CommunicationCost (Eq. 2) to",
	"perfmodel.EndToEnd":       "reference: the direct with/without sum TestEndToEnd and TestMonotonicityInK hold Eq. 4's closed form to",
	"parallel.ForGrain":        "reference: the closure-taking parallel-for that the seed layers (nn/reference_test.go) and seed products (tensor/kernels_test.go), kept verbatim, run on",

	"f16.Bits.IsNaN":                   "probe: TestNaNPreserved and TestExhaustiveRoundTrip classify encoded halves with it",
	"feedback.Compressor.ResidualNorm": "probe: the dist and guard mass-conservation tests read the banked residual through it",
	"guard.AppendFrame":                "probe: fixture builder for FuzzUnframe and the frame table tests",
	"guard.AppendFrameFP":              "probe: fixture builder for the fingerprinted-frame fuzz seeds",
	"quant.PackCodes":                  "probe: fixture builder for the N-bit code stream tests",
	"quant.UnpackCodes":                "probe: decoder half of PackCodes in the same tests",
	"trace.FlightRecorder.Dumps":       "probe: the dist chaos and elastic gates assert through it that a flight dump fired",
	"netsim.Ethernet1G":                "probe: the slow-link fixture of adapt's controller tests and netsim's profile tests",

	"parallel.SetWorkers": "hook: the one test hook — tests pin the pool width to compare 1- and N-worker results",
}

// loader type-checks the module's packages from their non-test files,
// each once, recording every identifier use into one types.Info; the
// standard library comes from the source importer.
type loader struct {
	fset  *token.FileSet
	std   types.ImporterFrom
	info  *types.Info
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
	recvs map[*ast.Ident]bool // receiver type names: a method does not use its type
}

func (l *loader) Import(path string) (*types.Package, error) { return l.ImportFrom(path, "", 0) }

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg := l.pkgs[path]; pkg != nil {
		return pkg, nil
	}
	rel, ok := strings.CutPrefix(path, "fftgrad/")
	if !ok {
		return l.std.ImportFrom(path, dir, mode)
	}
	entries, err := os.ReadDir(rel)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(rel, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(rel, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						l.recvs[id] = true
					}
					return true
				})
			}
		}
		files = append(files, f)
	}
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	l.files[path] = files
	return pkg, nil
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// loadModule type-checks every package with a non-test Go file under
// cmd/, internal/ and examples/, plus bench/ — once for both gates.
var loadModule = sync.OnceValues(func() (*loader, error) {
	fset := token.NewFileSet()
	l := &loader{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		info:  &types.Info{Uses: map[*ast.Ident]types.Object{}},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		recvs: map[*ast.Ident]bool{},
	}
	dirs := map[string]bool{"bench": true}
	for _, root := range []string{"cmd", "internal", "examples"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
				dirs[filepath.Dir(p)] = true
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	for dir := range dirs {
		if _, err := l.Import("fftgrad/" + filepath.ToSlash(dir)); err != nil {
			return nil, err
		}
	}
	return l, nil
})

func TestEveryExportedSymbolHasACaller(t *testing.T) {
	l, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	fset := l.fset

	// Direct uses, and the interface methods called: each reaches the
	// method of every module type that implements the interface.
	used := map[types.Object]bool{}
	called := map[*types.Interface][]*types.Func{}
	for id, obj := range l.info.Uses {
		if l.recvs[id] {
			continue
		}
		obj = origin(obj)
		used[obj] = true
		if f, ok := obj.(*types.Func); ok {
			if recv := f.Type().(*types.Signature).Recv(); recv != nil {
				if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
					called[iface] = append(called[iface], f)
				}
			}
		}
	}
	var named []*types.Named
	for _, pkg := range l.pkgs {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) && n.TypeParams().Len() == 0 {
					named = append(named, n)
				}
			}
		}
	}
	for iface, methods := range called {
		for _, n := range named {
			for _, v := range []types.Type{n, types.NewPointer(n)} {
				if !types.Implements(v, iface) {
					continue
				}
				for _, im := range methods {
					if m, _, _ := types.LookupFieldOrMethod(v, false, im.Pkg(), im.Name()); m != nil {
						used[origin(m)] = true
					}
				}
				break
			}
		}
	}

	type decl struct {
		key string
		obj types.Object
	}
	var decls []decl
	for path, pkg := range l.pkgs {
		if !strings.HasPrefix(path, "fftgrad/internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				decls = append(decls, decl{pkg.Name() + "." + name, obj})
			}
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok {
					for i := 0; i < n.NumMethods(); i++ {
						if m := n.Method(i); m.Exported() {
							decls = append(decls, decl{pkg.Name() + "." + name + "." + m.Name(), m})
						}
					}
				}
			}
		}
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found under internal/: run from the module root")
	}

	sort.Slice(decls, func(i, j int) bool { return decls[i].key < decls[j].key })
	needed := map[string]bool{}
	for _, d := range decls {
		if used[d.obj] {
			continue
		}
		needed[d.key] = true
		if callerAllow[d.key] == "" {
			t.Errorf("%s: %s has no caller outside tests: delete it with its tests, or allowlist it with a reason", fset.Position(d.obj.Pos()), d.key)
		}
	}
	for key := range callerAllow {
		if !needed[key] {
			t.Errorf("callerAllow[%q] is stale: the symbol is gone or has a caller now", key)
		}
	}
}

// knobAllow is keyed "pkg.Type.Field": an exported field of a *Config
// type that no non-test file outside its own package sets, with the
// reason it stays a field.
var knobAllow = map[string]string{
	"guard.Config.ClampLimit":  "bench: the replay reads it to rebuild the guard its workload runs",
	"guard.Config.RetainEvery": "bench: the replay reads it to rebuild the guard its workload runs",
	"guard.Config.RetainK":     "bench: the replay reads it to rebuild the guard its workload runs",
	"chaos.Config.Partition":   "schedule: the partition gates' fault schedule, built in cluster and dist tests",
}

// The knob gate: every exported field of an exported *Config type under
// internal/ must be set by a non-test file of another package — through
// a keyed composite literal, an assignment (or ++/--) or by taking its
// address — or sit on knobAllow. A field only its own package or a test
// sets always runs at one value, and that value belongs in a constant.
func TestEveryConfigFieldHasASetter(t *testing.T) {
	l, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	set := map[*types.Var]bool{}
	mark := func(pkg *types.Package, id *ast.Ident) {
		if v, ok := l.info.Uses[id].(*types.Var); ok && v.IsField() && v.Pkg() != pkg {
			set[v.Origin()] = true
		}
	}
	target := func(pkg *types.Package, e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			mark(pkg, sel.Sel)
		}
	}
	for path, files := range l.files {
		pkg := l.pkgs[path]
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								mark(pkg, id)
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						target(pkg, lhs)
					}
				case *ast.IncDecStmt:
					target(pkg, n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						target(pkg, n.X)
					}
				}
				return true
			})
		}
	}

	type knob struct {
		key string
		pos token.Pos
	}
	var knobs []knob
	for path, pkg := range l.pkgs {
		if !strings.HasPrefix(path, "fftgrad/internal/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() || !strings.HasSuffix(name, "Config") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if fv := st.Field(i); fv.Exported() && !set[fv] {
					knobs = append(knobs, knob{pkg.Name() + "." + name + "." + fv.Name(), fv.Pos()})
				}
			}
		}
	}
	sort.Slice(knobs, func(i, j int) bool { return knobs[i].key < knobs[j].key })
	needed := map[string]bool{}
	for _, k := range knobs {
		needed[k.key] = true
		if knobAllow[k.key] == "" {
			t.Errorf("%s: %s is set by no non-test file outside its package: make it a constant, or allowlist it with a reason", l.fset.Position(k.pos), k.key)
		}
	}
	for key := range knobAllow {
		if !needed[key] {
			t.Errorf("knobAllow[%q] is stale: the field is gone or has a setter now", key)
		}
	}
}

// The pool gate: outside internal/scratch no non-test file names
// sync.Pool. A pool's Get misses when the goroutine has moved to another
// P and a collection empties it, so "allocation-free in steady state"
// would hold only between collections; a buffer has an owner instead.
func TestNoSyncPoolOutsideScratch(t *testing.T) {
	l, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	for path, files := range l.files {
		if path == "fftgrad/internal/scratch" {
			continue
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if tn, ok := l.info.Uses[sel.Sel].(*types.TypeName); ok && tn.Pkg().Path() == "sync" && tn.Name() == "Pool" {
						t.Errorf("%s: sync.Pool outside internal/scratch", l.fset.Position(sel.Pos()))
					}
				}
				return true
			})
		}
	}
}
