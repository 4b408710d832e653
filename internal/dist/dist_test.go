// Package dist_test is the multi-process conformance suite at the library
// surface: a coordinator (serialgraph.Coordinate) plus K worker processes
// (serialgraph.Work) over real TCP loopback must produce results bitwise
// identical to a single-process BSP run with the same worker count,
// partitioning and seed — same values, superstep count, execution count
// and convergence verdict. The workers here are goroutines rather than OS
// processes, but each rebuilds its graph and program from the job, and
// every byte between them crosses sockets. The technique matrix across
// processes is internal/engine's TestMultiProcess*, and the OS-process
// runs are cmd/graphrun's TestGraphrunMultiProcess.
package dist_test

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"serialgraph"
	"serialgraph/internal/algorithms"
)

func requireLoopback(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	ln.Close()
}

// baseJob is the shared graph: a deterministic 80-vertex power-law graph
// every process generates alike from the job.
func baseJob(alg string) serialgraph.Job {
	return serialgraph.Job{Alg: alg, Family: "powerlaw", N: 80, Seed: 41,
		Undirected: alg == "coloring" || alg == "wcc"}
}

// baseOptions runs 3 workers x 2 partitions, BSP with no technique.
func baseOptions() serialgraph.Options {
	return serialgraph.Options{Workers: 3, PartitionsPerWorker: 2, MaxSupersteps: 200, Seed: 41,
		Model: serialgraph.BSP, Technique: serialgraph.NoSerializability}
}

// runDist executes one job entirely over loopback TCP: worker goroutines
// join the coordinator exactly as worker processes would.
func runDist[V, M any](t *testing.T, job serialgraph.Job, prog serialgraph.Program[V, M], opt serialgraph.Options) ([]V, serialgraph.Result) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	errs := make(chan error, opt.Workers)
	for i := 0; i < opt.Workers; i++ {
		go func() { errs <- serialgraph.Work(ln.Addr().String()) }()
	}
	g, err := serialgraph.JobGraph(job)
	if err != nil {
		t.Fatalf("build graph: %v", err)
	}
	vals, res, err := serialgraph.Coordinate(ln, g, prog, job, opt)
	for i := 0; i < opt.Workers; i++ {
		if werr := <-errs; werr != nil {
			t.Errorf("worker: %v", werr)
		}
	}
	if err != nil {
		t.Fatalf("coordinate: %v", err)
	}
	return vals, res
}

// conform runs the same program across processes and in one process and
// demands bitwise agreement.
func conform[V comparable, M any](t *testing.T, job serialgraph.Job, prog serialgraph.Program[V, M], opt serialgraph.Options) ([]V, serialgraph.Result) {
	t.Helper()
	got, gotRes := runDist(t, job, prog, opt)
	g, _ := serialgraph.JobGraph(job)
	want, wantRes, err := serialgraph.Run(g, prog, opt)
	if err != nil {
		t.Fatalf("single-process run: %v", err)
	}
	if gotRes.Converged != wantRes.Converged {
		t.Errorf("converged: processes %v, single %v", gotRes.Converged, wantRes.Converged)
	}
	if gotRes.Supersteps != wantRes.Supersteps {
		t.Errorf("supersteps: processes %d, single %d", gotRes.Supersteps, wantRes.Supersteps)
	}
	if gotRes.Executions != wantRes.Executions {
		t.Errorf("executions: processes %d, single %d", gotRes.Executions, wantRes.Executions)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("value[%d]: processes %v, single %v", v, got[v], want[v])
		}
	}
	if opt.Workers > 1 {
		net := gotRes.Net
		if net.DataMessages == 0 || net.DataBytes == 0 {
			t.Errorf("multi-worker run moved no data batches (%d batches, %d bytes)", net.DataMessages, net.DataBytes)
		}
		if net.WireBytesSent == 0 || net.WireBytesSent != net.WireBytesReceived {
			t.Errorf("wire bytes sent %d, received %d", net.WireBytesSent, net.WireBytesReceived)
		}
		if net.WireBytesSent < net.DataBytes/8 {
			t.Errorf("wire bytes %d implausibly small vs simulated %d", net.WireBytesSent, net.DataBytes)
		}
	}
	return got, gotRes
}

func TestDistMatchesEngineSSSP(t *testing.T) {
	requireLoopback(t)
	job := baseJob("sssp")
	got, res := conform(t, job, serialgraph.SSSP(0), baseOptions())
	if !res.Converged {
		t.Fatal("sssp did not converge")
	}
	// And against the serial oracle: the converged distances must be the
	// true shortest paths.
	g, _ := serialgraph.JobGraph(job)
	want := algorithms.ShortestPaths(g, 0)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, got[v], want[v])
		}
	}
}

func TestDistMatchesEnginePageRank(t *testing.T) {
	requireLoopback(t)
	job := baseJob("pagerank")
	job.Eps = 0.01
	conform(t, job, serialgraph.PageRank(0.01), baseOptions())
}

// A named streaming partitioner survives the wire: every worker process
// rebuilds the identical LDG map from the job, and the run still matches
// the single-process run bitwise.
func TestDistStreamingPartitioners(t *testing.T) {
	requireLoopback(t)
	for _, kind := range []string{"ldg"} {
		t.Run(kind, func(t *testing.T) {
			opt := baseOptions()
			opt.Partitioner = kind
			conform(t, baseJob("sssp"), serialgraph.SSSP(0), opt)
		})
	}
}

func TestDistMatchesEngineColoring(t *testing.T) {
	requireLoopback(t)
	// BSP coloring can oscillate; bound the run and compare the exact
	// (possibly non-converged) deterministic state.
	opt := baseOptions()
	opt.MaxSupersteps = 30
	conform(t, baseJob("coloring"), serialgraph.Coloring(), opt)
}

func TestDistMatchesEngineWCC(t *testing.T) {
	requireLoopback(t)
	conform(t, baseJob("wcc"), serialgraph.WCC(), baseOptions())
}

func TestDistSingleWorker(t *testing.T) {
	requireLoopback(t)
	opt := baseOptions()
	opt.Workers, opt.PartitionsPerWorker = 1, 4
	conform(t, baseJob("sssp"), serialgraph.SSSP(0), opt)
}

// The aggregated PageRank variant never votes to halt: termination
// depends entirely on per-vertex Aggregate contributions flowing up in
// StepDone, merging on the coordinator, feeding MasterHalt, and the merged
// values flowing back down in StepStart for Aggregated(). A converged,
// single-process-identical run proves the whole aggregator loop.
func TestDistAggregatedHalt(t *testing.T) {
	requireLoopback(t)
	job := baseJob("pagerank-agg")
	job.Eps = 0.05
	_, res := conform(t, job, serialgraph.PageRankAggregated(job.Eps), baseOptions())
	if !res.Converged {
		t.Fatalf("aggregated pagerank did not converge in %d supersteps", res.Supersteps)
	}
}

func TestDistRejectsUnknownAlg(t *testing.T) {
	requireLoopback(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	job := baseJob("no-such-alg")
	opt := baseOptions()
	opt.Workers = 1

	done := make(chan error, 1)
	go func() { done <- serialgraph.Work(ln.Addr().String()) }()
	g, _ := serialgraph.JobGraph(job)
	if _, _, err := serialgraph.Coordinate(ln, g, serialgraph.SSSP(0), job, opt); err == nil {
		t.Error("coordinator succeeded against a worker that rejected the job")
	}
	if werr := <-done; werr == nil {
		t.Error("worker accepted unknown algorithm")
	} else if want := fmt.Sprintf("unknown algorithm %q", job.Alg); !strings.Contains(werr.Error(), want) {
		t.Errorf("worker error %q does not mention %q", werr, want)
	}
}
