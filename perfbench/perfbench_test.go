package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The self-test runs every workload at tiny scale through the same code
// path the benchmark command takes. Jobs re-execute the test binary, which
// TestMain turns into the job process.

const benchPath = "../BENCHMARK.json"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "job" {
		os.Exit(jobMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs the benchmark on one workload at tiny scale and returns its
// printed lines and parsed result line.
func runTiny(t *testing.T, workload string, trace int, corrupt bool) ([]string, result) {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir())
	f := jobFlags{workload: workload, seed: 7, scale: 0.05, corrupt: corrupt}
	var out bytes.Buffer
	if err := run(f, 0.01, trace, benchPath, &out, io.Discard); err != nil {
		t.Fatalf("%s --trace %d: %v\n%s", workload, trace, err, out.String())
	}
	var lines []string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, strings.Join(lines, "\n"))
	}
	return lines, r
}

func loadDefs(t *testing.T) (*benchSpec, *benchmarkFile) {
	t.Helper()
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	bench, err := loadBenchmarkFile(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	return spec, bench
}

func workloadNames(t *testing.T) []string {
	_, bench := loadDefs(t)
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	return names
}

// TestSpecMatchesBenchmark checks that spec.json describes exactly the
// workloads and per-layer metrics BENCHMARK.json names, and that every
// per-layer metric names end-to-end metrics and workloads that exist.
func TestSpecMatchesBenchmark(t *testing.T) {
	spec, bench := loadDefs(t)
	var specWorkloads []string
	for name := range spec.Workloads {
		specWorkloads = append(specWorkloads, name)
	}
	benchWorkloads := workloadNames(t)
	sort.Strings(specWorkloads)
	sort.Strings(benchWorkloads)
	if !slices.Equal(specWorkloads, benchWorkloads) {
		t.Errorf("spec.json workloads %v, BENCHMARK.json workloads %v", specWorkloads, benchWorkloads)
	}
	var e2e []string
	for _, d := range bench.EndToEnd {
		e2e = append(e2e, d.Name)
	}
	seen := map[string]bool{}
	for _, d := range bench.PerLayer {
		seen[d.Name] = true
		lm, ok := spec.PerLayer[d.Name]
		if !ok {
			t.Errorf("per-layer metric %s has no entry in spec.json", d.Name)
			continue
		}
		for _, m := range lm.Moves {
			if !slices.Contains(e2e, m) {
				t.Errorf("%s moves %q, which is not an end-to-end metric", d.Name, m)
			}
		}
		for _, w := range lm.Workloads {
			if w != "all" && spec.Workloads[w] == nil {
				t.Errorf("%s names unknown workload %q", d.Name, w)
			}
		}
	}
	for name := range spec.PerLayer {
		if !seen[name] {
			t.Errorf("spec.json describes %s, which BENCHMARK.json does not list", name)
		}
	}
}

// TestEveryMetricPrinted runs each workload with and without tracing and
// checks that every metric BENCHMARK.json names is printed, by name and
// with its unit, both as a text line and in the result line, and that the
// jobs pass their checks.
func TestEveryMetricPrinted(t *testing.T) {
	_, bench := loadDefs(t)
	for _, name := range workloadNames(t) {
		for trace, defs := range [][]metricDef{bench.EndToEnd, bench.PerLayer} {
			lines, r := runTiny(t, name, trace, false)
			if !r.Correct || r.Failed != 0 || r.Attempted < minJobs {
				t.Errorf("%s --trace %d: correct=%v attempted=%d failed=%d\n%s",
					name, trace, r.Correct, r.Attempted, r.Failed, strings.Join(lines, "\n"))
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s --trace %d: %d metrics in the result, want %d", name, trace, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := r.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s --trace %d: result lacks %s with unit %s", name, trace, d.Name, d.Unit)
				}
				prefix := "metric " + d.Name + " = "
				if !slices.ContainsFunc(lines, func(l string) bool {
					return strings.HasPrefix(l, prefix) && strings.HasSuffix(l, " "+d.Unit)
				}) {
					t.Errorf("%s --trace %d: no line %q...%q", name, trace, prefix, d.Unit)
				}
			}
		}
	}
}

// TestCorruptAnswerCounted checks that a deliberately corrupted answer
// fails every job's check and is counted in failed and fail_rate.
func TestCorruptAnswerCounted(t *testing.T) {
	for _, name := range workloadNames(t) {
		_, r := runTiny(t, name, 1, true)
		if r.Correct || r.Failed != r.Attempted {
			t.Errorf("%s: corrupted answers gave correct=%v, %d of %d jobs failed", name, r.Correct, r.Failed, r.Attempted)
		}
		if fr := r.Metrics["fail_rate"].Value; fr == nil || *fr != 1 {
			t.Errorf("%s: fail_rate missing or not 1", name)
		}
	}
}
