package repro

// The reachability check: every package-level declaration under internal/
// must be reachable from a program, so that code no program runs does not
// pile up behind tests that exercise only it.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names the internal/ declarations that no program reaches
// but that stay, each with the reason it stays. An entry that a program
// reaches, or that is no longer declared, fails TestInternalReachable.
var reachAllowlist = map[string]string{
	"internal/problems.DTWRef":             "the straight-line oracle problems_test.go checks DTW's framework formulation against; every problem ships one beside its constructor (package doc)",
	"internal/problems.LCSRef":             "the straight-line oracle problems_test.go checks LCS's framework formulation against; every problem ships one beside its constructor (package doc)",
	"internal/problems.NeedlemanWunschRef": "the straight-line oracle problems_test.go checks Needleman-Wunsch's framework formulation against; every problem ships one beside its constructor (package doc)",
	"internal/problems.SmithWatermanRef":   "the straight-line oracle problems_test.go checks Smith-Waterman's framework formulation against; every problem ships one beside its constructor (package doc)",

	"internal/sched.Solve": "submit-and-wait helper shared by the sched tests and BenchmarkSchedulerBatch16x1024 in the root package; a _test.go file cannot serve two packages",

	"internal/table.Equal3":          "grid comparison shared by the tests of internal/core and internal/table",
	"internal/table.EqualComparable": "grid comparison shared by the tests of internal/core, internal/sched, internal/table and lddp",
}

func TestInternalReachable(t *testing.T) {
	decls, err := scanReach(".")
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]reachDecl{}
	for _, d := range decls {
		byName[d.name] = d
		if d.live || !d.internal {
			continue
		}
		if _, ok := reachAllowlist[d.name]; !ok {
			t.Errorf("%s %s: no program reaches it; delete it, move it into the _test.go file that uses it, or allowlist it with a reason", d.pos, d.name)
		}
	}
	for name, reason := range reachAllowlist {
		d, ok := byName[name]
		switch {
		case strings.TrimSpace(reason) == "":
			t.Errorf("allowlist entry %s has no reason", name)
		case !ok:
			t.Errorf("allowlist entry %s names no declaration; remove the entry", name)
		case d.live:
			t.Errorf("allowlist entry %s: a program reaches it; remove the entry", name)
		}
	}
}

// TestReachFixture pins what the check catches on a small module: a live
// function, a method of a generic type reached only through an
// instantiation, a method reached only through fmt.Stringer, a dead
// function and a helper that only the dead function calls. Exactly the
// last two are reported.
func TestReachFixture(t *testing.T) {
	decls, err := scanReach(filepath.Join("testdata", "reach"))
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for _, d := range decls {
		if d.internal && !d.live {
			dead = append(dead, d.name)
		}
	}
	want := []string{"internal/lib.Dead", "internal/lib.onlyDead"}
	if fmt.Sprint(dead) != fmt.Sprint(want) {
		t.Fatalf("unreachable = %v, want %v", dead, want)
	}
}

// reachDecl is one package-level declaration of the scanned tree.
type reachDecl struct {
	name     string // package directory, then [Recv.]Name: "internal/core.Options"
	pos      string // file:line, relative to the scanned root
	internal bool   // declared under the root's internal/ directory
	live     bool   // reachable from a root
}

// reachNode is a declaration in the use graph: what it uses, and whether
// it is reached yet.
type reachNode struct {
	decl *reachDecl
	uses []types.Object
}

// scanReach type-checks every non-test Go file under root and reports each
// package-level declaration with its liveness. The roots are every
// declaration outside internal/, init functions, blank variables, and the
// methods by which a live type satisfies an interface. Any other
// declaration is live only if a live declaration uses it; a use of a
// generic instantiation counts for its origin. Directories named testdata,
// or starting with "." or "_", are skipped.
func scanReach(root string) ([]reachDecl, error) {
	fset := token.NewFileSet()
	pkgs, err := parseReachTree(fset, root)
	if err != nil {
		return nil, err
	}
	im := &reachImporter{fset: fset, pkgs: pkgs, std: importer.ForCompiler(fset, "gc", nil)}
	paths := make([]string, 0, len(pkgs))
	for path := range pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := im.Import(path); err != nil {
			return nil, err
		}
	}

	nodes := map[types.Object]*reachNode{}
	var decls []*reachDecl
	var work []types.Object // reached, not yet expanded
	var rootUses [][]types.Object
	add := func(p *reachPkg, obj types.Object, name string, pos token.Pos, uses []types.Object) {
		position := fset.Position(pos)
		rel, _ := filepath.Rel(root, position.Filename)
		d := &reachDecl{
			name:     p.rel + "." + name,
			pos:      fmt.Sprintf("%s:%d", filepath.ToSlash(rel), position.Line),
			internal: p.internal,
		}
		decls = append(decls, d)
		nodes[obj] = &reachNode{decl: d, uses: uses}
		if !p.internal {
			work = append(work, obj)
		}
	}
	for _, path := range paths {
		p := pkgs[path]
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					uses := p.usesIn(decl)
					if decl.Recv == nil && decl.Name.Name == "init" {
						rootUses = append(rootUses, uses)
						continue
					}
					name := decl.Name.Name
					if decl.Recv != nil {
						name = recvName(decl.Recv.List[0].Type) + "." + name
					}
					add(p, p.info.Defs[decl.Name], name, decl.Pos(), uses)
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							add(p, p.info.Defs[spec.Name], spec.Name.Name, spec.Pos(), p.usesIn(spec))
						case *ast.ValueSpec:
							uses := p.usesIn(spec)
							for _, id := range spec.Names {
								if id.Name == "_" {
									rootUses = append(rootUses, uses)
									continue
								}
								add(p, p.info.Defs[id], id.Name, id.Pos(), uses)
							}
						}
					}
				}
			}
		}
	}
	for _, uses := range rootUses {
		work = append(work, uses...)
	}

	ifaceMethods := interfaceMethods(im, paths)
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		n := nodes[obj]
		if n == nil || n.decl.live {
			continue
		}
		n.decl.live = true
		work = append(work, n.uses...)
		if tn, ok := obj.(*types.TypeName); ok {
			work = append(work, ifaceMethods(tn)...)
		}
	}

	out := make([]reachDecl, len(decls))
	for i, d := range decls {
		out[i] = *d
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

// reachStdBodies declares interfaces through which the standard library
// calls methods but which export data does not show: those errors.Is,
// errors.As and errors.Unwrap assert inside their function bodies, and
// encoding/json's unexported isZeroer for omitzero fields.
const reachStdBodies = `package stdbodies

type (
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser           interface{ Is(error) bool }
	aser           interface{ As(any) bool }
	isZeroer       interface{ IsZero() bool }
)
`

// interfaceMethods returns a function that lists the methods by which a
// named type of the scanned tree satisfies an interface: one declared in
// the tree (named or literal), one in a standard-library package the tree
// imports (directly or not), error, or one of reachStdBodies. Those
// methods are reached through the interface, not by name. For a generic
// type, whose method sets are not checked against interfaces, every
// method whose name some interface declares counts.
func interfaceMethods(im *reachImporter, paths []string) func(*types.TypeName) []types.Object {
	var ifaces []*types.Interface
	names := map[string]bool{}
	seen := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] || it.NumMethods() == 0 || !it.IsMethodSet() {
			return
		}
		seen[it] = true
		if nt, ok := t.(*types.Named); !ok || nt.TypeParams().Len() == 0 {
			ifaces = append(ifaces, it)
		}
		for i := 0; i < it.NumMethods(); i++ {
			names[it.Method(i).Name()] = true
		}
	}
	addScope := func(pkg *types.Package) {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	bodies, err := parser.ParseFile(im.fset, "stdbodies.go", reachStdBodies, parser.SkipObjectResolution)
	if err != nil {
		panic(err)
	}
	stdBodies, err := (&types.Config{}).Check("stdbodies", im.fset, []*ast.File{bodies}, nil)
	if err != nil {
		panic(err)
	}
	addScope(stdBodies)
	visited := map[*types.Package]bool{}
	var walk func(pkg *types.Package)
	walk = func(pkg *types.Package) {
		if visited[pkg] {
			return
		}
		visited[pkg] = true
		addScope(pkg)
		for _, dep := range pkg.Imports() {
			walk(dep)
		}
	}
	for _, path := range paths {
		p := im.pkgs[path]
		walk(p.types)
		for _, tv := range p.info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
	}

	return func(tn *types.TypeName) []types.Object {
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			return nil
		}
		ptr := types.NewPointer(named)
		mset := types.NewMethodSet(ptr)
		var out []types.Object
		if named.TypeParams().Len() > 0 {
			for i := 0; i < mset.Len(); i++ {
				if m := mset.At(i).Obj(); names[m.Name()] {
					out = append(out, m.(*types.Func).Origin())
				}
			}
			return out
		}
		for _, it := range ifaces {
			if mset.Lookup(it.Method(0).Pkg(), it.Method(0).Name()) == nil || !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
					out = append(out, sel.Obj().(*types.Func).Origin())
				}
			}
		}
		return out
	}
}

// recvName is the base type name of a method receiver: T for T, *T, T[K]
// and *T[K].
func recvName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return fmt.Sprintf("%T", expr)
		}
	}
}

// reachPkg is one package of the scanned tree.
type reachPkg struct {
	rel      string // directory relative to the scanned root, "." for the root
	internal bool
	files    []*ast.File
	info     *types.Info
	types    *types.Package
}

// usesIn lists the objects that the identifiers under node refer to, with
// instantiated functions and methods mapped to their generic origin.
func (p *reachPkg) usesIn(node ast.Node) []types.Object {
	var uses []types.Object
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		switch obj := p.info.Uses[id].(type) {
		case nil:
		case *types.Func:
			uses = append(uses, obj.Origin())
		case *types.Var:
			uses = append(uses, obj.Origin())
		default:
			uses = append(uses, obj)
		}
		return true
	})
	return uses
}

// parseReachTree parses the non-test Go files under root, keyed by import
// path: the module path of root's go.mod joined with the directory.
func parseReachTree(fset *token.FileSet, root string) (map[string]*reachPkg, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			modPath = f[1]
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("%s/go.mod: no module line", root)
	}
	pkgs := map[string]*reachPkg{}
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		base := d.Name()
		if dir != root && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		var files []*ast.File
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, f)
		}
		if len(files) == 0 {
			return nil
		}
		rel, _ := filepath.Rel(root, dir)
		rel = filepath.ToSlash(rel)
		path := modPath
		if rel != "." {
			path += "/" + rel
		}
		pkgs[path] = &reachPkg{
			rel:      rel,
			internal: rel == "internal" || strings.HasPrefix(rel, "internal/"),
			files:    files,
		}
		return nil
	})
	return pkgs, err
}

// reachImporter type-checks the scanned tree's packages from source and
// reads every other import from the compiler's export data.
type reachImporter struct {
	fset *token.FileSet
	pkgs map[string]*reachPkg
	std  types.Importer
}

func (im *reachImporter) Import(path string) (*types.Package, error) {
	p, ok := im.pkgs[path]
	if !ok {
		return im.std.Import(path)
	}
	if p.types != nil {
		return p.types, nil
	}
	p.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: im}
	pkg, err := conf.Check(path, im.fset, p.files, p.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	p.types = pkg
	return pkg, nil
}
