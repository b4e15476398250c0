package repro

// The surface check: production packages hold only what production runs.
// Every exported identifier of an internal/* package must be referenced by
// non-test code outside its own declaration — in its own package, another
// internal package, the facade, cmd/, examples/ or bench/ (the benchmark
// module is a caller too) — or be on surfaceAllowlist with its reason.
//
// The check reads syntax only, no types, so it errs towards "used":
//   - Package-level names (functions, types, variables, constants) are
//     matched exactly: pkg.Name through an import of the package, or a bare
//     Name inside the package itself. A bare identifier of that spelling
//     counts even where it names a field or a local.
//   - Methods are matched by name alone: any selector x.M outside the
//     method's own declaration counts for every method M, whatever x's
//     type. A method used only through an interface, or implicitly (Error,
//     String), is therefore counted, and so is one whose name a different
//     type's method shares.
//   - A method of a type that the facade (package repro at the module root)
//     re-exports as an alias is checked like any other: the alias makes it
//     reachable, not used. The facade's aliases count as uses of the types.
//   - Struct fields and interface methods are not checked.
// A receiver does not count as a use of its type.

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

// surfaceAllowlist holds the exported internal/* names that only tests use,
// keyed pkg.Name or pkg.Type.Method, each with the reason it stays
// exported. An entry whose name gains a non-test caller is stale and fails
// the check, so the list only shrinks as callers arrive.
var surfaceAllowlist = map[string]string{
	"simnet.NewLive":               "the sequential engine, the differential oracle of the live and gossip runtime tests",
	"live.PeerSeed":                "a step's stream seed, which the oracle tests replay and docs/DETERMINISM.md documents",
	"shardrt.Core.SparseOwners":    "the sparse-owner count the live and async tests assert both delivery paths with",
	"core.PredictUniformFraction":  "the paper's Poisson prediction, for the claims of ROADMAP directions 13 and 14",
	"core.PredictWeightedFraction": "its weighted form, for the F1.dht claim of ROADMAP directions 13 and 14",
	"overlay.Ring.IntervalWeights": "a ring's selection weights, the input of that F1.dht prediction (ROADMAP direction 13)",
	"core.Arranger.Arrange":        "the facade Arranger's own-slice round, which README, doc.go and the package example document; runs use ArrangeShared",
	"par.Budget.Total":             "a budget's size, which the run and sim tests check they were handed",
	"bandwidth.Geometric":          "the widely heterogeneous profile that the bandwidth and core tests share",
	"stats.FitLogN":                "the log2(n) scaling fit that the stats and gossip tests share",
}

// maxSurfaceAllowlist bounds the allowlist: a name that only tests use
// belongs in the tests, unexported, or deleted.
const maxSurfaceAllowlist = 12

// surfaceDecl is one exported declaration of an internal package: its
// key, and the span of its declaration, inside which uses do not count.
type surfaceDecl struct {
	key, method string // method is the bare name of a method, else ""
	file        string
	pos, end    token.Pos
}

// surfaceUse is one use of a package-level name (key pkg.Name) or of a
// method name (key "." + Name), at a position in a file.
type surfaceUse struct {
	key  string
	file string
	pos  token.Pos
}

// internalPkg returns the internal package a repository path belongs to
// ("async" for internal/async/async.go), or "" outside internal/.
func internalPkg(path string) string {
	rest, ok := strings.CutPrefix(filepath.ToSlash(filepath.Dir(path)), "internal/")
	if !ok {
		return ""
	}
	return rest
}

// scanSurface parses every non-test Go file under root and returns the
// exported declarations of internal packages and every use of a name.
func scanSurface(t *testing.T, root string) ([]surfaceDecl, []surfaceUse) {
	t.Helper()
	fset := token.NewFileSet()
	var decls []surfaceDecl
	var uses []surfaceUse
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		pkg := internalPkg(rel)
		if pkg != "" {
			decls = append(decls, exportedDecls(pkg, rel, f)...)
		}
		uses = append(uses, fileUses(pkg, rel, f)...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls, uses
}

// exportedDecls lists the exported top-level declarations of file f of
// internal package pkg.
func exportedDecls(pkg, file string, f *ast.File) []surfaceDecl {
	var out []surfaceDecl
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				out = append(out, surfaceDecl{key: pkg + "." + d.Name.Name, file: file, pos: d.Pos(), end: d.End()})
				continue
			}
			out = append(out, surfaceDecl{key: pkg + "." + recvType(d.Recv.List[0].Type) + "." + d.Name.Name,
				method: d.Name.Name, file: file, pos: d.Pos(), end: d.End()})
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						out = append(out, surfaceDecl{key: pkg + "." + s.Name.Name, file: file, pos: s.Pos(), end: s.End()})
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() {
							out = append(out, surfaceDecl{key: pkg + "." + name.Name, file: file, pos: s.Pos(), end: s.End()})
						}
					}
				}
			}
		}
	}
	return out
}

// recvType returns the type name of a method receiver: T for T, *T, T[P]
// and *T[P].
func recvType(e ast.Expr) string {
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

// fileUses lists the uses of exported names in file f, which belongs to
// internal package pkg ("" outside internal/).
func fileUses(pkg, file string, f *ast.File) []surfaceUse {
	imports := map[string]string{} // local name -> internal package
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		ipkg, ok := strings.CutPrefix(path, "repro/internal/")
		if !ok {
			continue
		}
		name := filepath.Base(ipkg)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = ipkg
	}
	var out []surfaceUse
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ImportSpec:
			return false
		case *ast.FuncDecl:
			// The receiver is not a use of its type.
			ast.Inspect(x.Type, visit)
			if x.Body != nil {
				ast.Inspect(x.Body, visit)
			}
			return false
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if ipkg, ok := imports[id.Name]; ok {
					out = append(out, surfaceUse{key: ipkg + "." + x.Sel.Name, file: file, pos: x.Pos()})
					return false
				}
			}
			out = append(out, surfaceUse{key: "." + x.Sel.Name, file: file, pos: x.Sel.Pos()})
			ast.Inspect(x.X, visit)
			return false
		case *ast.Ident:
			if pkg != "" && x.IsExported() {
				out = append(out, surfaceUse{key: pkg + "." + x.Name, file: file, pos: x.Pos()})
			}
		}
		return true
	}
	for _, decl := range f.Decls {
		ast.Inspect(decl, visit)
	}
	return out
}

// unusedExports returns the keys of the declarations no use reaches from
// outside the declaration itself.
func unusedExports(decls []surfaceDecl, uses []surfaceUse) []string {
	byKey := map[string][]surfaceUse{}
	for _, u := range uses {
		byKey[u.key] = append(byKey[u.key], u)
	}
	var unused []string
	for _, d := range decls {
		key := d.key
		if d.method != "" {
			key = "." + d.method
		}
		used := false
		for _, u := range byKey[key] {
			if u.file != d.file || u.pos < d.pos || u.pos >= d.end {
				used = true
				break
			}
		}
		if !used {
			unused = append(unused, d.key)
		}
	}
	sort.Strings(unused)
	return unused
}

// TestSurfaceExportsHaveCallers fails on every exported internal/* name
// that only tests use and that the allowlist does not name, and on every
// allowlist entry that is not such a name (it gained a caller, or is gone).
func TestSurfaceExportsHaveCallers(t *testing.T) {
	decls, uses := scanSurface(t, ".")
	unused := unusedExports(decls, uses)
	t.Logf("%d exported internal/* identifiers, %d used by tests alone", len(decls), len(unused))
	if len(surfaceAllowlist) > maxSurfaceAllowlist {
		t.Errorf("the allowlist has %d entries, more than %d", len(surfaceAllowlist), maxSurfaceAllowlist)
	}
	isUnused := map[string]bool{}
	for _, key := range unused {
		isUnused[key] = true
		if _, ok := surfaceAllowlist[key]; !ok {
			t.Errorf("%s is exported but no non-test code uses it: unexport it, move it into its tests, or delete it", key)
		}
	}
	for key := range surfaceAllowlist {
		if !isUnused[key] {
			t.Errorf("allowlist entry %s is stale: the name has a non-test caller or no longer exists", key)
		}
	}
}
