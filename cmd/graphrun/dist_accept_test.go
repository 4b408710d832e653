package main

// Acceptance: a graphrun coordinator plus real worker OS processes
// complete SSSP, PageRank, and coloring over TCP loopback with results
// identical to an in-process run on the same graph, worker count,
// partitioning, and seed — under BSP, and under async partition locking
// against the single-process graphrun output. This is the process-level
// counterpart of the goroutine-based multi-process conformance suites in
// internal/dist and internal/engine: here the bytes cross actual process
// boundaries and the only shared state is the graph file.

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"serialgraph"
	"serialgraph/internal/algorithms"
	"serialgraph/internal/engine"
	"serialgraph/internal/generate"
	"serialgraph/internal/graph"
	"serialgraph/internal/model"
)

func acceptRequireLoopback(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	ln.Close()
}

// buildGraphrun compiles the binary once per test run.
func buildGraphrun(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "graphrun")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

var listeningRe = regexp.MustCompile(`listening on (\S+) for`)

// startCoordinator launches the coordinator process and blocks until it
// prints its bound address.
func startCoordinator(t *testing.T, ctx context.Context, bin string, args []string) (*exec.Cmd, string, chan error) {
	t.Helper()
	cmd := exec.CommandContext(ctx, bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start coordinator: %v", err)
	}
	sc := bufio.NewScanner(stdout)
	addr := ""
	for sc.Scan() {
		if m := listeningRe.FindStringSubmatch(sc.Text()); m != nil {
			addr = m[1]
			break
		}
	}
	if addr == "" {
		cmd.Process.Kill()
		t.Fatalf("coordinator never reported its address (scan err: %v)", sc.Err())
	}
	done := make(chan error, 1)
	go func() {
		// Drain the rest of stdout so the process never blocks on a full
		// pipe, then reap it.
		for sc.Scan() {
		}
		done <- cmd.Wait()
	}()
	return cmd, addr, done
}

func TestGraphrunMultiProcess(t *testing.T) {
	acceptRequireLoopback(t)
	if testing.Short() {
		t.Skip("builds and spawns real processes; skipped in -short")
	}
	dir := t.TempDir()
	bin := buildGraphrun(t, dir)

	// A fixed graph, written once and shared by path — the one thing the
	// processes may have in common.
	g := generate.PowerLaw(generate.PowerLawConfig{N: 120, AvgDegree: 5, Exponent: 2.2, Seed: 97})
	graphPath := filepath.Join(dir, "g.bin")
	if err := graph.SaveFile(graphPath, g); err != nil {
		t.Fatalf("save graph: %v", err)
	}

	const seed = 7
	bsp := []string{"-model", "bsp", "-technique", "none"}
	// Vote-halting PageRank and coloring do not converge under BSP (the
	// matrix test documents both), so those runs are bounded and the
	// exact bounded state compared; SSSP converges on its own.
	cases := []struct {
		name          string
		alg           string
		workers       int // 0 = 2
		maxSupersteps int // 0 = default
		extra         []string
		// rejected names a flag the coordinator does not read: it must
		// exit non-zero naming it, before accepting any worker.
		rejected string
		// single compares against the single-process graphrun -o output
		// with the same flags instead of the in-process BSP engine.
		single bool
	}{
		{name: "sssp", alg: "sssp", extra: append(bsp, "-source", "0")},
		{name: "pagerank", alg: "pagerank", maxSupersteps: 50, extra: append(bsp, "-eps", "0.01")},
		{name: "coloring", alg: "coloring", maxSupersteps: 30, extra: bsp},
		{name: "sssp-async-partition-lock", alg: "sssp", workers: 3, single: true,
			extra: []string{"-source", "0", "-model", "async", "-technique", "partition-locking"}},
		{name: "rejects-bap", alg: "sssp", extra: []string{"-model", "bap"}, rejected: "-model"},
		{name: "rejects-checkpoint", alg: "sssp", extra: []string{"-checkpoint-every", "2"}, rejected: "-checkpoint-every"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()

			workers := tc.workers
			if workers == 0 {
				workers = 2
			}
			outPath := filepath.Join(dir, tc.name+".txt")
			common := []string{"-workers", fmt.Sprint(workers), "-alg", tc.alg, "-graph", graphPath,
				"-seed", fmt.Sprint(seed)}
			if tc.maxSupersteps > 0 {
				common = append(common, "-max-supersteps", fmt.Sprint(tc.maxSupersteps))
			}
			common = append(common, tc.extra...)
			args := append([]string{"-listen", "127.0.0.1:0", "-o", outPath}, common...)
			if tc.rejected != "" {
				out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
				if err == nil {
					t.Fatalf("coordinator accepted %s; output:\n%s", tc.rejected, out)
				}
				if !strings.Contains(string(out), tc.rejected) {
					t.Fatalf("coordinator failed without naming %s:\n%s", tc.rejected, out)
				}
				return
			}
			_, addr, coordDone := startCoordinator(t, ctx, bin, args)

			workerDone := make(chan error, workers)
			for i := 0; i < workers; i++ {
				w := exec.CommandContext(ctx, bin, "-join", addr)
				w.Stderr = os.Stderr
				if err := w.Start(); err != nil {
					t.Fatalf("start worker: %v", err)
				}
				go func() { workerDone <- w.Wait() }()
			}
			for i := 0; i < workers; i++ {
				if err := <-workerDone; err != nil {
					t.Fatalf("worker process: %v", err)
				}
			}
			if err := <-coordDone; err != nil {
				t.Fatalf("coordinator process: %v", err)
			}

			got, err := os.ReadFile(outPath)
			if err != nil {
				t.Fatalf("read values: %v", err)
			}
			var want string
			if tc.single {
				refPath := filepath.Join(dir, tc.name+".ref.txt")
				ref := append([]string{"-o", refPath}, common...)
				if out, err := exec.CommandContext(ctx, bin, ref...).CombinedOutput(); err != nil {
					t.Fatalf("single-process reference: %v\n%s", err, out)
				}
				b, err := os.ReadFile(refPath)
				if err != nil {
					t.Fatalf("read reference: %v", err)
				}
				want = string(b)
			} else {
				want = inprocLines(t, tc.alg, graphPath, tc.maxSupersteps, seed)
			}
			if string(got) != want {
				t.Fatalf("%s: multi-process values differ from the single-process run\n got %d bytes, want %d bytes",
					tc.name, len(got), len(want))
			}
		})
	}
}

// inprocLines runs the same job on the in-process engine (same BSP mode,
// worker count, partitioning, seed) and renders the values exactly as
// the coordinator's -o writer does.
func inprocLines(t *testing.T, alg, graphPath string, maxSupersteps int, seed uint64) string {
	t.Helper()
	g, err := serialgraph.JobGraph(serialgraph.Job{GraphPath: graphPath, Undirected: alg == "coloring"})
	if err != nil {
		t.Fatalf("rebuild graph: %v", err)
	}
	if maxSupersteps == 0 {
		maxSupersteps = 100000
	}
	cfg := engine.Config{
		Workers: 2, PartitionsPerWorker: 2, Mode: engine.BSP,
		Sync: engine.SyncNone, Seed: seed, MaxSupersteps: maxSupersteps,
	}
	var sb strings.Builder
	switch alg {
	case "sssp":
		render(t, &sb, g, algorithms.SSSP(0), cfg)
	case "pagerank":
		render(t, &sb, g, algorithms.PageRank(0.01), cfg)
	case "coloring":
		render(t, &sb, g, algorithms.Coloring(), cfg)
	default:
		t.Fatalf("no in-process reference for %q", alg)
	}
	return sb.String()
}

func render[V, M any](t *testing.T, sb *strings.Builder, g *graph.Graph, prog model.Program[V, M], cfg engine.Config) {
	t.Helper()
	vals, _, _, err := engine.Run(g, prog, cfg)
	if err != nil {
		t.Fatalf("engine run: %v", err)
	}
	for _, v := range vals {
		fmt.Fprintln(sb, v)
	}
}
