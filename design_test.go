package rme

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignMatchesCode pins DESIGN.md to the code, the way rmebench's
// usage text is pinned to its registry: every API name §4 gives is
// exported by package rme, and §7's layout names every command, internal
// package, example and root source file.
func TestDesignMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	sources, names, members := exportedAPI(t)
	isMember := map[string]bool{}
	for m := range members {
		isMember[m[strings.IndexByte(m, '.')+1:]] = true
	}

	api := designSection(t, doc, "4")
	qualified := regexp.MustCompile(`\brme\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`)
	for _, m := range qualified.FindAllStringSubmatch(api, -1) {
		if !names[m[1]] {
			t.Errorf("§4 names %s, but package rme exports no %s", m[0], m[1])
		} else if m[2] != "" && !members[m[1]+"."+m[2]] {
			t.Errorf("§4 names %s, but %s has no exported method or field %s", m[0], m[1], m[2])
		}
	}
	bareCall := regexp.MustCompile("`([A-Z]\\w*)\\(")
	for _, m := range bareCall.FindAllStringSubmatch(api, -1) {
		if !names[m[1]] && !isMember[m[1]] {
			t.Errorf("§4 calls %s, which is no exported function or method of package rme", m[1])
		}
	}

	layout := designSection(t, doc, "7")
	want := append([]string{"grafana/"}, sources...)
	for _, dir := range []string{"cmd", "internal", "examples"} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				want = append(want, dir+"/"+e.Name()+"/")
			}
		}
	}
	for _, w := range want {
		if !strings.Contains(layout, w) {
			t.Errorf("§7's layout omits %s", w)
		}
	}
}

// designSection returns DESIGN.md's section "## num. …" up to the next
// top-level heading.
func designSection(t *testing.T, doc, num string) string {
	t.Helper()
	start := strings.Index(doc, "\n## "+num+". ")
	if start < 0 {
		t.Fatalf("DESIGN.md has no section %s", num)
	}
	body := doc[start+1:]
	if end := strings.Index(body, "\n## "); end >= 0 {
		body = body[:end]
	}
	return body
}

// exportedAPI parses the package's non-test source files and returns
// their names, the exported top-level names, and the exported methods
// and struct fields keyed "Type.Name".
func exportedAPI(t *testing.T) (sources []string, names, members map[string]bool) {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	names, members = map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		sources = append(sources, name)
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					names[d.Name.Name] = true
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				members[recv.(*ast.Ident).Name+"."+d.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						names[s.Name.Name] = true
						st, ok := s.Type.(*ast.StructType)
						if !ok {
							continue
						}
						for _, field := range st.Fields.List {
							for _, fn := range field.Names {
								if fn.IsExported() {
									members[s.Name.Name+"."+fn.Name] = true
								}
							}
						}
					case *ast.ValueSpec:
						for _, vn := range s.Names {
							if vn.IsExported() {
								names[vn.Name] = true
							}
						}
					}
				}
			}
		}
	}
	return sources, names, members
}
