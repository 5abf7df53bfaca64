package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
)

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesCode checks that BENCHMARK.json names exactly the
// workloads the command runs, and that every per-layer metric has a
// written prediction of the end-to-end metric it should move.
func TestSpecMatchesCode(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloads[i].name)
		}
	}
	predicted := map[string]bool{}
	for _, p := range predictions {
		predicted[p.metric] = true
	}
	if len(predicted) != len(spec.PerLayer) {
		t.Errorf("%d predictions for %d per-layer metrics", len(predicted), len(spec.PerLayer))
	}
	for _, m := range spec.PerLayer {
		if !predicted[m.Name] {
			t.Errorf("per-layer metric %s has no prediction", m.Name)
		}
	}
}

// TestEveryWorkloadReportsItsMetrics runs every workload briefly,
// untraced and traced, and checks that each run is correct and reports
// exactly the metrics BENCHMARK.json names, with their units.
func TestEveryWorkloadReportsItsMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			res, err := run(context.Background(), w.name, 1, 2, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (traced %v): correct %v, %d of %d failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (traced %v): metric %s missing", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s (traced %v): metric %s in %q, want %q", w.name, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}
