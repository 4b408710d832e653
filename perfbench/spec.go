package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"serialgraph/internal/cluster"
)

// spec.json holds what BENCHMARK.json's fixed schema has no room for: each
// workload's configuration, why it was chosen and its predicted layer mix,
// and for every per-layer metric the end-to-end metric and workload it
// should move. It is embedded so the binary cannot drift from it.
//
//go:embed spec.json
var specJSON []byte

type clusterSpec struct {
	Workers             int     `json:"workers"`
	ThreadsPerWorker    int     `json:"threads_per_worker"`
	PartitionsPerWorker int     `json:"partitions_per_worker"`
	LatencyUS           int     `json:"latency_us"`
	BandwidthBytesPerS  float64 `json:"bandwidth_bytes_per_s"`
}

func (c clusterSpec) latency() cluster.LatencyModel {
	return cluster.LatencyModel{
		Propagation: time.Duration(c.LatencyUS) * time.Microsecond,
		BytesPerSec: c.BandwidthBytesPerS,
	}
}

// mixCheck is one clause of a workload's predicted layer mix, confirmed by
// the traced run: Metric Op Value, or Metric Op Value × Times when Times
// names another metric.
type mixCheck struct {
	Metric string  `json:"metric"`
	Op     string  `json:"op"`
	Value  float64 `json:"value"`
	Times  string  `json:"times,omitempty"`
}

type workload struct {
	Name        string  `json:"-"`
	Dataset     string  `json:"dataset"`
	Algorithm   string  `json:"algorithm"` // pagerank | coloring | sssp
	Engine      string  `json:"engine"`    // pregel | gas
	Mode        string  `json:"mode"`      // async | bsp (pregel only)
	Sync        string  `json:"sync"`      // none | token-dual | partition-lock | vertex-lock
	Transport   string  `json:"transport"` // inproc | tcp
	Eps         float64 `json:"eps,omitempty"`
	Budget      int64   `json:"msg_memory_budget,omitempty"`
	Check       string  `json:"check"` // residual | bitwise-bsp | coloring | sssp
	MaxResidual float64 `json:"max_residual,omitempty"`
	// History lists the serializability checks (C1, C2, 1SR) the traced
	// run's transaction history must pass; empty means the job is not
	// recorded.
	History     []string   `json:"history_checks,omitempty"`
	SerialIters int        `json:"serial_iters,omitempty"`
	Mix         []mixCheck `json:"mix"`
}

// layerMetric records which end-to-end metrics a per-layer metric should
// move, and on which workloads ("all" for every one).
type layerMetric struct {
	Moves     []string `json:"moves"`
	Workloads []string `json:"workloads"`
}

// benchSpec is the part of spec.json the benchmark reads; the rest of the file
// documents the workloads, the seeds and the metrics' sources.
type benchSpec struct {
	Cluster   clusterSpec            `json:"cluster"`
	Workloads map[string]*workload   `json:"workloads"`
	PerLayer  map[string]layerMetric `json:"per_layer"`
}

func loadSpec() (*benchSpec, error) {
	var s benchSpec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	for name, w := range s.Workloads {
		w.Name = name
	}
	return &s, nil
}

func (s *benchSpec) workload(name string) (*workload, error) {
	if w, ok := s.Workloads[name]; ok {
		return w, nil
	}
	names := make([]string, 0, len(s.Workloads))
	for n := range s.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// metricDef is one metric entry of BENCHMARK.json.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads: the metric
// names and units it must print.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
