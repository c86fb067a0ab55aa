package aliaslimit_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// minPackageDocChars is what "non-trivial" means for a package comment: a
// one-line stub passes go vet but tells a reader nothing about where the
// package sits in the pipeline, so the floor is set well above one line.
const minPackageDocChars = 120

// TestPackageDocsPresent requires every package in this module — the root
// facade, every internal/* package, and every command — to carry a
// substantive package comment. New packages start documented or fail here.
func TestPackageDocsPresent(t *testing.T) {
	dirs := []string{"."}
	for _, pattern := range []string{"internal/*", "cmd/*"} {
		matches, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range matches {
			if info, err := os.Stat(m); err == nil && info.IsDir() {
				dirs = append(dirs, m)
			}
		}
	}
	if len(dirs) < 20 {
		t.Fatalf("only found %d package dirs, glob is broken", len(dirs))
	}

	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		var best string
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, file, nil, parser.PackageClauseOnly|parser.ParseComments)
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			if f.Doc != nil && len(f.Doc.Text()) > len(best) {
				best = f.Doc.Text()
			}
		}
		if best == "" {
			t.Errorf("package %s has no package comment", dir)
			continue
		}
		if len(best) < minPackageDocChars {
			t.Errorf("package %s: package comment is %d chars, want >= %d — say what the package is and where it sits:\n%s",
				dir, len(best), minPackageDocChars, best)
		}
	}
}

// unnamedAllowed lists exported declarations kept although no non-test code
// names them: alias.GroupSorted is the reference grouping that the alias and
// resolver tests compare the production grouper against.
var unnamedAllowed = map[string]bool{
	"aliaslimit/internal/alias.GroupSorted": true,
}

// goFile is one parsed Go file of the repository.
type goFile struct {
	// dir is the file's directory, slash-separated, relative to the root.
	dir string
	// pkgPath is the import path of the directory's package.
	pkgPath string
	// test marks a _test.go file.
	test bool
	f    *ast.File
}

// parseRepo parses every Go file of the repository (perfbench/, cmd/ and
// examples/ included), skipping hidden and testdata directories.
func parseRepo(t *testing.T) []goFile {
	t.Helper()
	var files []goFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		pkgPath := "aliaslimit"
		if dir != "." {
			pkgPath += "/" + dir
		}
		files = append(files, goFile{dir: dir, pkgPath: pkgPath, test: strings.HasSuffix(path, "_test.go"), f: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestExportedDeclarationsNamed keeps the exported surface from growing
// code that only tests reach. It fails when an exported package-level
// function or type, declared in a non-test file outside perfbench/ and
// outside main packages, is named by no non-test Go file of the repository.
// Callers are every non-test file (perfbench/, cmd/ and examples/ included)
// and every Example function, which documentation runs. The census reads
// syntax alone: a bare name counts in its own package, a qualified name
// through the file's import of the declaring package. A method's receiver is
// not a use of its type: a type only its own methods name is built by no
// caller. Methods are out of its reach, because a call through an interface
// does not name the concrete method; TestUnexportedFunctionsUsed covers the
// unexported ones.
func TestExportedDeclarationsNamed(t *testing.T) {
	var decls []string         // "importpath.Name" of each exported declaration
	named := map[string]bool{} // "importpath.Name" of each name a caller uses
	for _, gf := range parseRepo(t) {
		f, dir, pkgPath := gf.f, gf.dir, gf.pkgPath
		imports := map[string]string{} // local name → import path
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			local := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = p
		}
		var callers []ast.Node
		if gf.test {
			for _, fd := range f.Decls {
				if fn, ok := fd.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Example") {
					callers = append(callers, fn.Body)
				}
			}
		} else {
			declares := f.Name.Name != "main" && dir != "perfbench" && !strings.HasPrefix(dir, "perfbench/")
			for _, fd := range f.Decls {
				switch fd := fd.(type) {
				case *ast.FuncDecl:
					if fd.Recv == nil && fd.Name.IsExported() && declares {
						decls = append(decls, pkgPath+"."+fd.Name.Name)
					}
					callers = append(callers, fd.Type)
					if fd.Body != nil {
						callers = append(callers, fd.Body)
					}
				case *ast.GenDecl:
					for _, spec := range fd.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok {
							if ts.Name.IsExported() && declares {
								decls = append(decls, pkgPath+"."+ts.Name.Name)
							}
							callers = append(callers, ts.Type)
							continue
						}
						callers = append(callers, spec)
					}
				}
			}
		}
		// visit records the names n uses. It skips the names that cannot
		// refer to a package-level declaration: a selector's field or
		// method, a struct field's or interface method's own name, and a
		// composite literal's field key.
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						named[p+"."+n.Sel.Name] = true
						return false
					}
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Field:
				ast.Inspect(n.Type, visit)
				return false
			case *ast.KeyValueExpr:
				if _, ok := n.Key.(*ast.Ident); !ok {
					ast.Inspect(n.Key, visit)
				}
				ast.Inspect(n.Value, visit)
				return false
			case *ast.Ident:
				named[pkgPath+"."+n.Name] = true
			}
			return true
		}
		for _, n := range callers {
			ast.Inspect(n, visit)
		}
	}
	if len(decls) < 100 {
		t.Fatalf("only found %d exported declarations, the walk is broken", len(decls))
	}
	for _, d := range decls {
		if !named[d] && !unnamedAllowed[d] {
			t.Errorf("%s is named by no non-test code: delete it, or move it into the _test.go file that uses it", d)
		}
	}
}

// TestUnexportedFunctionsUsed is the census's sibling for unexported code. It
// fails when an unexported package-level function or method, declared in a
// non-test file, is used by no identifier in its package's non-test files
// other than its declaration. It matches by name alone, so any identifier of
// the same name counts as a use: it can miss dead code but never flags live
// code.
func TestUnexportedFunctionsUsed(t *testing.T) {
	type decl struct{ pkgPath, dir, name, label string }
	var decls []decl
	idents := map[string]map[string]int{} // dir → name → identifiers, declarations included
	for _, gf := range parseRepo(t) {
		if gf.test {
			continue
		}
		counts := idents[gf.dir]
		if counts == nil {
			counts = map[string]int{}
			idents[gf.dir] = counts
		}
		ast.Inspect(gf.f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				counts[id.Name]++
			}
			return true
		})
		for _, d := range gf.f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.IsExported() {
				continue
			}
			name := fd.Name.Name
			if name == "init" || name == "_" || (name == "main" && gf.f.Name.Name == "main") {
				continue
			}
			label := name
			if fd.Recv != nil {
				label = receiverType(fd.Recv.List[0].Type) + "." + name
			}
			decls = append(decls, decl{gf.pkgPath, gf.dir, name, label})
		}
	}
	if len(decls) < 100 {
		t.Fatalf("only found %d unexported functions and methods, the walk is broken", len(decls))
	}
	declared := map[[2]string]int{} // (dir, name) → declarations of that name
	for _, d := range decls {
		declared[[2]string{d.dir, d.name}]++
	}
	for _, d := range decls {
		if idents[d.dir][d.name] <= declared[[2]string{d.dir, d.name}] {
			t.Errorf("%s: %s is used by no non-test code of its package: delete it, or move it into the _test.go file that uses it", d.pkgPath, d.label)
		}
	}
}

// receiverType names a method's receiver type, without pointer or type
// parameters.
func receiverType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return receiverType(e.X)
	case *ast.IndexExpr:
		return receiverType(e.X)
	case *ast.IndexListExpr:
		return receiverType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
