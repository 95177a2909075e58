package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"atgpu/internal/experiments"
)

// TestRegistryReachableThroughDaemon: every registered workload is served
// over HTTP as run, sweep, analyze and lint jobs, and as a pipeline job
// exactly when it has a pipelined variant — otherwise admission answers
// 400.
func TestRegistryReachableThroughDaemon(t *testing.T) {
	s := newTestServer(t, ServerConfig{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submit := func(body string) (int, Job) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var job Job
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(raw, &job); err != nil {
				t.Fatalf("%s: %v", body, err)
			}
		}
		return resp.StatusCode, job
	}

	// Sizes are multiples of the tiny preset's warp width (matmul) and
	// small enough for its 64-word shared memory (histogram-priv keeps
	// min(n, 32) bins per block).
	for _, w := range experiments.Workloads() {
		jobs := []string{
			`"kind":"run","n":8`,
			`"kind":"sweep","sizes":[4,8]`,
			`"kind":"analyze","n":8`,
			`"kind":"lint","n":8`,
		}
		pipeline := `"kind":"pipeline","sizes":[16],"chunks":2`
		if w.Pipelined != nil {
			jobs = append(jobs, pipeline)
		} else if code, _ := submit(fmt.Sprintf(`{%s,"workload":%q,"device":"tiny","wait":true}`, pipeline, w.Name)); code != http.StatusBadRequest {
			t.Errorf("%s: pipeline job without a pipelined variant answered %d, want 400", w.Name, code)
		}
		for _, j := range jobs {
			body := fmt.Sprintf(`{%s,"workload":%q,"device":"tiny","wait":true}`, j, w.Name)
			code, job := submit(body)
			if code != http.StatusOK || job.State != StateSuccess {
				t.Errorf("%s: status %d, job state %q error %q", body, code, job.State, job.Error)
				continue
			}
			var doc Result
			if err := json.Unmarshal(job.Result, &doc); err != nil || doc.Workload != w.Name {
				t.Errorf("%s: result document %s (err %v)", body, job.Result, err)
			}
		}
	}
}
