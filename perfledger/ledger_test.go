package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/decomp"
)

// benchmarkFile is the part of BENCHMARK.json the test checks against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// tiny shrinks a workload so that every one runs in well under a second
// while keeping its shape: the same exports per cycle, tolerance, window,
// p_s sleeping longer than rank 0, and solver steps.
func tiny(s spec) spec {
	s.n = 16
	s.cycles, s.warmCycles = 12, 2
	s.fastSleep /= 10
	s.slowSleep /= 10
	if s.solverSteps > 0 {
		s.solverSteps = 2
	}
	return s
}

func TestWorkloadsDeclared(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestEveryMetricPrinted runs every workload at a tiny size, untraced and
// traced, and checks that each run is correct and prints every declared
// metric with its declared unit.
func TestEveryMetricPrinted(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			res, err := measure(tiny(w), 7, 100*time.Millisecond, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			var out bytes.Buffer
			ok, err := report(&out, []*result{res})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !ok || res.attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d\n%s", w.name, traced, ok, res.attempted, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var jr jsonResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &jr); err != nil {
				t.Fatalf("%s traced=%v: last line is not the JSON result: %v", w.name, traced, err)
			}
			if len(jr.Metrics) != len(want) {
				t.Errorf("%s traced=%v: printed %d metrics, BENCHMARK.json declares %d", w.name, traced, len(jr.Metrics), len(want))
			}
			for _, d := range want {
				m, found := jr.Metrics[d.Name]
				if !found || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s: got %+v (found=%v), want unit %s", w.name, traced, d.Name, m, found, d.Unit)
				}
				if !strings.Contains(out.String(), " "+d.Name+" ") {
					t.Errorf("%s traced=%v: metric %s has no readable line", w.name, traced, d.Name)
				}
			}
		}
	}
}

// TestCellCheck makes sure a single wrong cell, a wrong version or a wrong
// seed fails the import check.
func TestCellCheck(t *testing.T) {
	block := decomp.NewRect(3, 8, 9, 16)
	vals := make([]float64, block.Area())
	fill(vals, block, 32, saltOf(5), 40)
	if !cellsOK(vals, block, 32, saltOf(5), 40) {
		t.Fatal("a freshly filled block fails its check")
	}
	if cellsOK(vals, block, 32, saltOf(5), 39) || cellsOK(vals, block, 32, saltOf(6), 40) {
		t.Fatal("a block passes the check of another version or seed")
	}
	vals[len(vals)/2]++
	if cellsOK(vals, block, 32, saltOf(5), 40) {
		t.Fatal("a block with one wrong cell passes")
	}
}
