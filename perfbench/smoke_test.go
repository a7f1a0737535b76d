package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

// BENCHMARK.json and perfbench must name the same workloads and
// metrics with the same units.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, perfbench has %d", names, len(workloads))
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, perfbench has %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: %s/%s, perfbench %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer())
}

// TestWorkloadSmoke runs every workload briefly, untraced and traced,
// against a server built from this checkout and requires error_rate 0.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts the server")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "lodify")
	build := exec.Command("go", "build", "-o", bin, "./cmd/lodify")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build server: %v\n%s", err, out)
	}
	var names []string
	for w := range workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		for _, trace := range []bool{false, true} {
			r := newRun()
			r.workload, r.seed, r.seconds, r.trace, r.serverBin, r.outDir = w, 5, 1, trace, bin, dir
			if err := workloads[w](r); err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if r.attempted == 0 || r.failed != 0 {
				t.Errorf("%s trace=%v: error_rate %d/%d, failures %v", w, trace, r.failed, r.attempted, r.failures)
			}
			specs := endToEnd
			if trace {
				specs = perLayer()
			}
			for _, m := range specs {
				if _, ok := r.metrics[m.name]; !ok && !trace {
					t.Errorf("%s: end-to-end metric %s missing", w, m.name)
				}
			}
			if v := r.metrics["setup_s"]; v <= 0 {
				t.Errorf("%s trace=%v: setup_s = %v", w, trace, v)
			}
		}
	}
}
