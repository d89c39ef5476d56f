// Command apilint checks the API surface of the Go modules it is given.
// It loads every package of those modules once — `go list -deps -export
// -json` in each module, go/types over the sources, and the standard
// library from the compiler's export data — and runs three checks:
//
//   - doc: in each package directory named by -doc, every exported
//     top-level identifier (types, functions, methods on exported
//     receivers, var/const specs) carries a doc comment, and the package
//     has a package comment. scripts/check.sh runs it over the
//     operator-facing packages (wire, faas, federation), so the API
//     surface OPERATIONS.md documents cannot grow undocumented corners.
//   - dead: every package-level declaration in an internal/ package is
//     reachable from a root. The roots are every declaration outside
//     internal/ packages (commands, examples, scripts, and the other
//     modules given) and every main, init and _ declaration. A
//     declaration reaches whatever its syntax names (types.Info.Uses). A
//     method is also reached when its receiver type is reached and that
//     type, or a pointer to it, implements an interface with a method of
//     that name declared in the loaded program or in a standard-library
//     package it imports — that keeps String, Error, heap.Interface and
//     policy implementations alive. Test files are not loaded, so code
//     only tests call is dead.
//   - field: every exported field of an exported internal/ struct type
//     whose name ends in Config or Options is set somewhere: by a
//     composite-literal element, or outside its own package by an
//     assignment or ++/-- through a selector or by taking its address.
//     A knob no caller sets is a constant in disguise.
//   - det: in each package directory named by -det, no for statement
//     ranges over a map unless a //det: comment on its line or the line
//     above gives the reason its order cannot reach the output. Go
//     randomizes map order, so a loop that feeds a report, a trace or a
//     random draw must range over sorted keys instead. scripts/check.sh
//     runs it over the packages a simulated report or trace is computed
//     in, whose outputs are pinned bit for bit.
//
// An unreachable declaration or an unset field may stay only as an entry
// in the -allow file: one line per finding, its name (pkgpath.Name,
// pkgpath.Type.Method for a method, pkgpath.Type.Field for a field)
// followed by a one-line reason. An entry that names a reachable
// declaration, a set field or nothing at all is itself a finding, so the
// list cannot rot.
//
// Usage:
//
//	go run ./scripts/apilint -doc ./internal/federation,./internal/wire \
//	    -det ./internal/core,./internal/scenario \
//	    -allow scripts/apilint/allowlist.txt . benchmark
//
// The arguments are module directories (default "."). Findings print one
// per line, sorted, in file:line: message form; the exit status is 1 when
// there are any and 2 when the program cannot be loaded.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
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
	"sort"
	"strings"
)

func main() {
	doc := flag.String("doc", "", "comma-separated package directories for the doc check")
	det := flag.String("det", "", "comma-separated package directories for the det check")
	allow := flag.String("allow", "", "allowlist file for the dead and field checks")
	flag.Parse()
	modules := flag.Args()
	if len(modules) == 0 {
		modules = []string{"."}
	}
	split := func(dirs string) []string {
		if dirs == "" {
			return nil
		}
		return strings.Split(dirs, ",")
	}
	findings, err := run(modules, split(*doc), split(*det), *allow)
	if err != nil {
		fmt.Fprintln(os.Stderr, "apilint:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "apilint: %d findings\n", len(findings))
		os.Exit(1)
	}
}

// run loads the modules and returns the sorted findings of every check.
func run(modules, docDirs, detDirs []string, allowFile string) ([]string, error) {
	prog, err := load(modules)
	if err != nil {
		return nil, err
	}
	findings, err := prog.docCheck(docDirs)
	if err != nil {
		return nil, err
	}
	detFindings, err := prog.detCheck(detDirs)
	if err != nil {
		return nil, err
	}
	findings = append(findings, detFindings...)
	allow, err := readAllowlist(allowFile)
	if err != nil {
		return nil, err
	}
	flagged := prog.deadCheck()
	for name, f := range prog.fieldCheck() {
		flagged[name] = f
	}
	for name, f := range flagged {
		if !allow[name] {
			findings = append(findings, f)
		}
	}
	for name := range allow {
		if _, ok := flagged[name]; !ok {
			findings = append(findings, fmt.Sprintf("allowlist: %s is not an unreachable declaration or an unset field; remove the entry", name))
		}
	}
	sort.Strings(findings)
	return findings, nil
}

// A pkg is one type-checked package of the loaded program.
type pkg struct {
	path, dir string
	files     []*ast.File
	info      *types.Info
}

// A program is every non-standard package of the loaded modules,
// dependencies first, plus the interfaces its dead check consults.
type program struct {
	fset   *token.FileSet
	pkgs   []*pkg
	ifaces map[string][]*types.Interface // method name → interfaces declaring it
}

// listed is the part of `go list -json` output the loader reads.
type listed struct {
	ImportPath, Dir, Export string
	Standard                bool
	GoFiles                 []string
	Error                   *struct{ Err string }
}

func load(modules []string) (*program, error) {
	var all []listed
	exports := map[string]string{}
	for _, m := range modules {
		cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
		cmd.Dir = m
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %v", m, err)
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); ; {
			var l listed
			if err := dec.Decode(&l); err == io.EOF {
				break
			} else if err != nil {
				return nil, fmt.Errorf("go list in %s: %v", m, err)
			}
			if l.Error != nil {
				return nil, fmt.Errorf("%s: %s", l.ImportPath, l.Error.Err)
			}
			if l.Export != "" {
				exports[l.ImportPath] = l.Export
			}
			all = append(all, l)
		}
	}
	prog := &program{fset: token.NewFileSet(), ifaces: map[string][]*types.Interface{}}
	gc := importer.ForCompiler(prog.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	})
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return gc.Import(path)
	})}
	seen := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			prog.ifaces[name] = append(prog.ifaces[name], it)
		}
	}
	// go list -deps prints dependencies before their dependents, so each
	// program package's imports are checked before it is.
	for _, l := range all {
		if l.Standard || checked[l.ImportPath] != nil || len(l.GoFiles) == 0 {
			continue
		}
		p := &pkg{path: l.ImportPath, dir: l.Dir, info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}}
		for _, name := range l.GoFiles {
			f, err := parser.ParseFile(prog.fset, filepath.Join(l.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, f)
		}
		tp, err := conf.Check(l.ImportPath, prog.fset, p.files, p.info)
		if err != nil {
			return nil, err
		}
		checked[l.ImportPath] = tp
		prog.pkgs = append(prog.pkgs, p)
		for _, tv := range p.info.Types {
			addIface(tv.Type)
		}
	}
	for _, l := range all {
		if !l.Standard || l.Export == "" {
			continue
		}
		sp, err := gc.Import(l.ImportPath)
		if err != nil {
			return nil, err
		}
		for _, name := range sp.Scope().Names() {
			if tn, ok := sp.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
	}
	return prog, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// A decl is one package-level declaration: a func or method, a type
// spec, or one name of a var/const spec.
type decl struct {
	name, kind string
	pos        token.Pos
	internal   bool
	uses       []types.Object
}

// deadCheck returns a finding for every unreachable internal/
// declaration, keyed by the name an allowlist entry uses.
func (prog *program) deadCheck() map[string]string {
	decls := map[types.Object]*decl{}
	var roots []types.Object
	for _, p := range prog.pkgs {
		internal := isInternal(p.path)
		add := func(id *ast.Ident, kind string, pos token.Pos, syntax ast.Node) {
			obj := p.info.Defs[id]
			if obj == nil {
				return
			}
			d := &decl{name: p.path + "." + id.Name, kind: kind, pos: pos, internal: internal}
			ast.Inspect(syntax, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && p.info.Uses[id] != nil {
					d.uses = append(d.uses, origin(p.info.Uses[id]))
				}
				return true
			})
			// A const in an iota group names its type only on the
			// group's first spec.
			if _, ok := obj.(*types.Const); ok {
				if tn := namedOf(obj.Type()); tn != nil {
					d.uses = append(d.uses, tn)
				}
			}
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					d.kind = "method"
					d.name = p.path + "." + namedOf(recv.Type()).Name() + "." + id.Name
				}
			}
			decls[obj] = d
			if !internal || id.Name == "main" || id.Name == "init" || id.Name == "_" {
				roots = append(roots, obj)
			}
		}
		for _, f := range p.files {
			for _, dl := range f.Decls {
				switch dl := dl.(type) {
				case *ast.FuncDecl:
					add(dl.Name, "func", dl.Pos(), dl)
				case *ast.GenDecl:
					for _, spec := range dl.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(s.Name, "type", s.Pos(), s)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id, strings.ToLower(dl.Tok.String()), id.Pos(), s)
							}
						}
					}
				}
			}
		}
	}

	live := map[types.Object]bool{}
	queue := roots
	for len(queue) > 0 {
		obj := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if live[obj] || decls[obj] == nil {
			continue
		}
		live[obj] = true
		queue = append(queue, decls[obj].uses...)
		if tn, ok := obj.(*types.TypeName); ok {
			queue = append(queue, prog.ifaceMethods(tn.Type())...)
		}
	}

	findings := map[string]string{}
	for obj, d := range decls {
		if d.internal && !live[obj] {
			findings[d.name] = fmt.Sprintf("%s: unreachable %s %s", prog.position(d.pos), d.kind, d.name)
		}
	}
	return findings
}

// fieldCheck returns a finding for every exported field of an exported
// internal/ struct type named *Config or *Options that nothing sets,
// keyed pkgpath.Type.Field. A composite-literal element sets a field
// anywhere (ParseHedge builds the HedgeConfig a flag asks for); an
// assignment, ++/-- or &field sets it only outside the field's own
// package, since inside it they fill in defaults.
func (prog *program) fieldCheck() map[string]string {
	knobs := map[*types.Var]string{}
	for _, p := range prog.pkgs {
		for _, obj := range p.info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || !isInternal(p.path) || !tn.Exported() || tn.Parent() != tn.Pkg().Scope() ||
				!strings.HasSuffix(tn.Name(), "Config") && !strings.HasSuffix(tn.Name(), "Options") {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if fv := st.Field(i); fv.Exported() {
						knobs[fv] = p.path + "." + tn.Name() + "." + fv.Name()
					}
				}
			}
		}
	}

	written := map[*types.Var]bool{}
	for _, p := range prog.pkgs {
		mark := func(obj types.Object) {
			if fv, ok := obj.(*types.Var); ok && fv.IsField() {
				written[fv.Origin()] = true
			}
		}
		markSel := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if fv, ok := p.info.Uses[sel.Sel].(*types.Var); ok && fv.Pkg().Path() != p.path {
					mark(fv)
				}
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit: // keyed or positional elements
					st, ok := p.info.Types[n].Type.Underlying().(*types.Struct)
					for i, elt := range n.Elts {
						if kv, isKV := elt.(*ast.KeyValueExpr); isKV {
							if key, isID := kv.Key.(*ast.Ident); isID {
								mark(p.info.Uses[key])
							}
						} else if ok {
							mark(st.Field(i))
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						markSel(lhs)
					}
				case *ast.IncDecStmt:
					markSel(n.X)
				case *ast.UnaryExpr: // &cfg.Field may be written through
					if n.Op == token.AND {
						markSel(n.X)
					}
				}
				return true
			})
		}
	}

	findings := map[string]string{}
	for fv, name := range knobs {
		if !written[fv] {
			findings[name] = fmt.Sprintf("%s: field %s is never set", prog.position(fv.Pos()), name)
		}
	}
	return findings
}

// ifaceMethods returns the methods of t's method set (promoted ones
// included) through which t or *t implements some loaded interface.
func (prog *program) ifaceMethods(t types.Type) []types.Object {
	if types.IsInterface(t) {
		return nil
	}
	ptr := types.NewPointer(t)
	var out []types.Object
	ms := types.NewMethodSet(ptr)
	for i := 0; i < ms.Len(); i++ {
		m := ms.At(i).Obj()
		for _, it := range prog.ifaces[m.Name()] {
			if types.Implements(t, it) || types.Implements(ptr, it) {
				out = append(out, origin(m))
				break
			}
		}
	}
	return out
}

// origin maps an instantiated method to its declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// namedOf returns the type name behind t or *t, or nil.
func namedOf(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

func isInternal(path string) bool {
	for _, elem := range strings.Split(path, "/") {
		if elem == "internal" {
			return true
		}
	}
	return false
}

// position renders pos as file:line, the file relative to the working
// directory when it lies below it.
func (prog *program) position(pos token.Pos) string {
	p := prog.fset.Position(pos)
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, p.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			p.Filename = rel
		}
	}
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

// readAllowlist parses the allowlist file: blank lines and # comments
// are skipped, every other line is a declaration name and its reason.
func readAllowlist(file string) (map[string]bool, error) {
	allow := map[string]bool{}
	if file == "" {
		return allow, nil
	}
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	for n, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) < 2 {
			return nil, fmt.Errorf("%s:%d: entry %q has no reason", file, n+1, fields[0])
		}
		allow[fields[0]] = true
	}
	return allow, nil
}

// pkgAt returns the loaded package in dir, which the flag named check
// was given.
func (prog *program) pkgAt(check, dir string) (*pkg, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for _, p := range prog.pkgs {
		if p.dir == abs {
			return p, nil
		}
	}
	return nil, fmt.Errorf("-%s %s: no loaded package in that directory", check, dir)
}

// detCheck runs the det check over the given package directories.
func (prog *program) detCheck(dirs []string) ([]string, error) {
	var findings []string
	for _, dir := range dirs {
		p, err := prog.pkgAt("det", dir)
		if err != nil {
			return nil, err
		}
		for _, f := range p.files {
			reasons := map[int]bool{} // lines holding a //det: reason
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if r, ok := strings.CutPrefix(c.Text, "//det:"); ok && strings.TrimSpace(r) != "" {
						reasons[prog.fset.Position(c.Pos()).Line] = true
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				_, isMap := p.info.TypeOf(rs.X).Underlying().(*types.Map)
				if line := prog.fset.Position(rs.For).Line; isMap && !reasons[line] && !reasons[line-1] {
					findings = append(findings, fmt.Sprintf("%s: range over a map: range over sorted keys, or give a //det: reason", prog.position(rs.For)))
				}
				return true
			})
		}
	}
	return findings, nil
}

// docCheck runs the doc check over the given package directories.
func (prog *program) docCheck(dirs []string) ([]string, error) {
	var findings []string
	for _, dir := range dirs {
		p, err := prog.pkgAt("doc", dir)
		if err != nil {
			return nil, err
		}
		report := func(pos token.Pos, format string, args ...any) {
			findings = append(findings, prog.position(pos)+": "+fmt.Sprintf(format, args...))
		}
		pkgDoc := false
		for _, file := range p.files {
			if file.Doc != nil {
				pkgDoc = true
			}
			for _, decl := range file.Decls {
				lintDoc(decl, report)
			}
		}
		if !pkgDoc {
			findings = append(findings, fmt.Sprintf("%s: package %s has no package comment", dir, p.files[0].Name.Name))
		}
	}
	return findings, nil
}

// lintDoc reports one top-level declaration's undocumented exported
// names. A doc comment on a grouped var/const/type block covers every
// spec in the group; a spec-level doc or trailing line comment also
// counts (the stdlib's own style for short var groups).
func lintDoc(decl ast.Decl, report func(token.Pos, string, ...any)) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || d.Doc != nil {
			return
		}
		if recv := receiverType(d); recv != "" {
			if !ast.IsExported(recv) {
				return // method on an unexported type: internal detail
			}
			report(d.Pos(), "exported method %s.%s has no doc comment", recv, d.Name.Name)
			return
		}
		report(d.Pos(), "exported function %s has no doc comment", d.Name.Name)
	case *ast.GenDecl:
		if d.Tok != token.TYPE && d.Tok != token.VAR && d.Tok != token.CONST {
			return
		}
		groupDoc := d.Doc != nil
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && !groupDoc && s.Doc == nil && s.Comment == nil {
					report(s.Pos(), "exported type %s has no doc comment", s.Name.Name)
				}
			case *ast.ValueSpec:
				covered := groupDoc || s.Doc != nil || s.Comment != nil
				for _, name := range s.Names {
					if name.IsExported() && !covered {
						report(s.Pos(), "exported %s %s has no doc comment", strings.ToLower(d.Tok.String()), name.Name)
					}
				}
			}
		}
	}
}

// receiverType returns the bare type name of a method receiver ("" for
// plain functions), unwrapping pointers and generic instantiations.
func receiverType(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}
