package atgpu

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"atgpu/internal/experiments"
)

// TestNoWorkloadNameSwitches guards the workload registry: outside
// internal/experiments/workload.go, no front-door package switches on or
// compares against a registered workload name. Front doors look workloads
// up instead, so adding one stays a one-descriptor change.
func TestNoWorkloadNameSwitches(t *testing.T) {
	names := map[string]bool{}
	for _, name := range experiments.WorkloadNames() {
		names[name] = true
	}
	// workloadName reports the registered name e spells, if any.
	workloadName := func(e ast.Expr) (string, bool) {
		lit, ok := e.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(lit.Value)
		return s, err == nil && names[s]
	}
	cmds, err := filepath.Glob("cmd/*")
	if err != nil {
		t.Fatal(err)
	}
	dirs := append([]string{".", "internal/service", "internal/experiments"}, cmds...)
	registry := filepath.Join("internal", "experiments", "workload.go")
	fset := token.NewFileSet()
	checked := 0
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") || path == registry {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			checked++
			ast.Inspect(f, func(n ast.Node) bool {
				var operands []ast.Expr
				switch n := n.(type) {
				case *ast.CaseClause:
					operands = n.List
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						operands = []ast.Expr{n.X, n.Y}
					}
				}
				for _, e := range operands {
					if name, ok := workloadName(e); ok {
						t.Errorf("%s: matches workload name %q; look it up with experiments.Lookup instead",
							fset.Position(e.Pos()), name)
					}
				}
				return true
			})
		}
	}
	if checked == 0 {
		t.Fatal("no front-door sources found")
	}
}
