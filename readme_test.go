package atgpu

import (
	"os"
	"strings"
	"testing"

	"atgpu/internal/experiments"
)

// TestReadmeWorkloadTable keeps README.md's workload table in step with
// the experiments registry: the same names in registry order, and the
// pipelined column matching each descriptor.
func TestReadmeWorkloadTable(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	pipelined := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 6 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`")
		names = append(names, name)
		pipelined[name] = strings.TrimSpace(cells[3]) == "yes"
	}
	want := experiments.WorkloadNames()
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("README workload table lists %v, registry has %v", names, want)
	}
	for _, w := range experiments.Workloads() {
		if pipelined[w.Name] != (w.Pipelined != nil) {
			t.Errorf("README marks %s pipelined=%v, registry says %v", w.Name, pipelined[w.Name], w.Pipelined != nil)
		}
	}
}
