package fftgrad

// The caller gate: every exported function, method, type, const and var
// declared under internal/ must be named by at least one non-test file
// of the module (cmd/, internal/, examples/ and bench/*.go), or sit on
// the allowlist below with the reason it stays. The match is by name
// alone — any non-declaring identifier or selector spelled like the
// symbol counts as a caller — so the gate can miss a dead symbol that
// shares its name with a live one, and can never fail a symbol that is
// really called.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
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
	"comm.OpError.Unwrap":        "interface: errors.Is/As reach ErrPeerDown and ErrTimeout through it",

	"f16.FromFloat32":          "reference: the scalar encoder TestRoundWiden* compare the rounding kernels against",
	"f16.Bits.Float32":         "reference: the scalar decoder half of the same comparison",
	"pack.Sparse.UnpackSerial": "reference: the serial scatter TestUnpack* compare the parallel Unpack against",
	"pack.DecodeBitmapRLE":     "reference: decoder half of EncodeBitmapRLE, held to it by FuzzDecodeBitmapRLE",
	"quant.NewRangeQuantizer":  "reference: the untuned quantizer the tuned constructors are compared against",
	"perfmodel.SavedCost":      "reference: Eq. 3, the identity TestEquationConsistency holds CommunicationCost (Eq. 2) to",

	"feedback.Compressor.ResidualNorm": "probe: the dist and guard mass-conservation tests read the banked residual through it",
	"guard.AppendFrame":                "probe: fixture builder for FuzzUnframe and the frame table tests",
	"guard.AppendFrameFP":              "probe: fixture builder for the fingerprinted-frame fuzz seeds",
	"quant.PackCodes":                  "probe: fixture builder for the N-bit code stream tests",
	"quant.UnpackCodes":                "probe: decoder half of PackCodes in the same tests",
	"trace.FlightRecorder.Dumps":       "probe: the dist chaos and elastic gates assert through it that a flight dump fired",
	"netsim.Ethernet1G":                "probe: the slow-link fixture of adapt's controller tests and netsim's profile tests",

	"parallel.SetWorkers": "hook: the one test hook — tests pin the pool width to compare 1- and N-worker results",
}

type exportedDecl struct {
	key, name string
	pos       token.Position
}

func TestEveryExportedSymbolHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	var files []string
	for _, root := range []string{"cmd", "internal", "examples"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				files = append(files, p)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	benchFiles, err := filepath.Glob("bench/*.go")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, benchFiles...)

	var decls []exportedDecl
	named := map[string]bool{}
	for _, path := range files {
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		declaring := map[*ast.Ident]bool{}
		record := func(id *ast.Ident, recv string) {
			declaring[id] = true
			if !id.IsExported() || !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
				return
			}
			decls = append(decls, exportedDecl{
				key:  f.Name.Name + "." + recv + id.Name,
				name: id.Name,
				pos:  fset.Position(id.Pos()),
			})
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				recv := ""
				if d.Recv != nil {
					// A method's receiver does not call its type.
					ast.Inspect(d.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							declaring[id] = true
						}
						return true
					})
					recv = receiverName(d.Recv.List[0].Type) + "."
				}
				record(d.Name, recv)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						record(s.Name, "")
					case *ast.ValueSpec:
						for _, id := range s.Names {
							record(id, "")
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declaring[id] {
				named[id.Name] = true
			}
			return true
		})
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found under internal/: run from the module root")
	}

	sort.Slice(decls, func(i, j int) bool { return decls[i].key < decls[j].key })
	needed := map[string]bool{}
	for _, d := range decls {
		if named[d.name] {
			continue
		}
		needed[d.key] = true
		if callerAllow[d.key] == "" {
			t.Errorf("%s: %s has no caller outside tests: delete it with its tests, or allowlist it with a reason", d.pos, d.key)
		}
	}
	for key := range callerAllow {
		if !needed[key] {
			t.Errorf("callerAllow[%q] is stale: the symbol is gone or has a caller now", key)
		}
	}
}

// receiverName strips the pointer and any type parameters off a method
// receiver's type expression.
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
