package objinline_test

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

// TestNoUncalledFunctions is a dead-function guard: every func or method
// declared in a non-test file under internal/ or cmd/ must have its name
// appear as an identifier somewhere in the module other than a function
// declaration's own name. Uses in tests count. Matching is by name only,
// so it cannot see that a method is reached only through an interface;
// the root package and perfbench/ are out of scope for that reason
// (encoding.TextMarshaler, slog.Handler).
func TestNoUncalledFunctions(t *testing.T) {
	type decl struct {
		name string
		pos  token.Position
	}
	var decls []decl
	uses := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
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
		inScope := !strings.HasSuffix(path, "_test.go") &&
			(strings.HasPrefix(path, "internal"+string(filepath.Separator)) ||
				strings.HasPrefix(path, "cmd"+string(filepath.Separator)))
		declNames := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fd.Name] = true
			if inScope && fd.Name.Name != "main" && fd.Name.Name != "init" && fd.Name.Name != "_" {
				decls = append(decls, decl{fd.Name.Name, fset.Position(fd.Name.Pos())})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declNames[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no function declarations found under internal/ or cmd/")
	}
	var dead []string
	for _, d := range decls {
		if uses[d.name] == 0 {
			dead = append(dead, d.pos.String()+": "+d.name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is never referenced in the module; delete it", d)
	}
}
