package engine

// Multi-process conformance: a coordinator plus three worker "processes"
// over real TCP sockets must run every technique of the in-process engine
// and agree with it by the transport-equivalence rule (see
// transport_equiv_test.go): BSP cells bitwise, with equal supersteps,
// executions and convergence; SSSP and WCC exact on every cell; async
// PageRank within the residual bound and async coloring proper. The
// workers here are goroutines rather than OS processes, but each rebuilds
// its own graph and program, and everything between the processes — the
// job, supersteps, data, forks, tokens, flush markers, values and reports
// — crosses sockets as frames. The OS-process version of the same run is
// cmd/graphrun's TestGraphrunMultiProcess; internal/dist holds the
// library-level BSP conformance tests.

import (
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/graph"
	"serialgraph/internal/model"
	"serialgraph/internal/wire"
)

// runProcesses runs prog as a multi-process job under cfg: a coordinator
// on a real listener and cfg.Workers worker goroutines that join it as
// worker processes would, each with its own build() of the graph. It
// fails the test on any process's error.
func runProcesses[V, M any](t *testing.T, build func() *graph.Graph, prog model.Program[V, M], cfg Config, partitioner string) ([]V, Result) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	errs := make(chan error, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go func() {
			s, err := Join(ln.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer s.Close()
			errs <- Work(s, build(), prog)
		}()
	}
	vals, res, err := Coordinate(ln, build(), prog, cfg, wire.Job{Partitioner: partitioner})
	for i := 0; i < cfg.Workers; i++ {
		if werr := <-errs; werr != nil {
			t.Errorf("worker: %v", werr)
		}
	}
	if err != nil {
		t.Fatalf("coordinate: %v", err)
	}
	return vals, res
}

// processConfig is equivConfig for a multi-process run.
func processConfig(mode Mode, sync Sync) Config { return equivConfig(mode, sync, TransportInProc) }

// sameRun demands the bitwise agreement a schedule-deterministic (BSP) run
// owes the in-process engine.
func sameRun[V comparable](t *testing.T, label string, got, want []V, gotRes, wantRes Result) {
	t.Helper()
	if gotRes.Converged != wantRes.Converged || gotRes.Supersteps != wantRes.Supersteps ||
		gotRes.Executions != wantRes.Executions {
		t.Fatalf("%s: processes converged=%v supersteps=%d executions=%d, in-process %v/%d/%d", label,
			gotRes.Converged, gotRes.Supersteps, gotRes.Executions,
			wantRes.Converged, wantRes.Supersteps, wantRes.Executions)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: value[%d] = %v across processes, %v in-process", label, v, got[v], want[v])
		}
	}
}

func TestMultiProcessEquivalenceMatrix(t *testing.T) {
	equivRequireLoopback(t)
	cells := []struct {
		name string
		mode Mode
		sync Sync
	}{
		{"bsp/none", BSP, SyncNone},
		{"async/none", Async, SyncNone},
		{"async/token-single", Async, TokenSingle},
		{"async/token-dual", Async, TokenDual},
		{"async/partition-lock", Async, PartitionLock},
		{"async/vertex-lock-giraph", Async, VertexLockGiraph},
	}
	directed := func() *graph.Graph { return equivGraph(false) }
	undirected := func() *graph.Graph { return equivGraph(true) }
	for _, cell := range cells {
		cell := cell
		t.Run("sssp/"+cell.name, func(t *testing.T) {
			t.Parallel()
			label := "sssp/" + cell.name
			g := directed()
			got, res := runProcesses(t, directed, algorithms.SSSP(0), processConfig(cell.mode, cell.sync), "")
			reconcile(t, label, TransportTCP, res)
			want := algorithms.ShortestPaths(g, 0)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s: dist[%d] = %v, want %v", label, v, got[v], want[v])
				}
			}
			ref, refRes, _, err := Run(g, algorithms.SSSP(0), processConfig(cell.mode, cell.sync))
			if err != nil {
				t.Fatal(err)
			}
			if cell.mode == BSP {
				sameRun(t, label, got, ref, res, refRes)
			} else if !res.Converged {
				t.Fatalf("%s: did not converge", label)
			}
		})
		t.Run("wcc/"+cell.name, func(t *testing.T) {
			t.Parallel()
			label := "wcc/" + cell.name
			g := undirected()
			got, res := runProcesses(t, undirected, algorithms.WCC(), processConfig(cell.mode, cell.sync), "")
			reconcile(t, label, TransportTCP, res)
			want := algorithms.Components(g)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s: component[%d] = %d, want %d", label, v, got[v], want[v])
				}
			}
			if cell.mode == BSP {
				ref, refRes, _, err := Run(g, algorithms.WCC(), processConfig(cell.mode, cell.sync))
				if err != nil {
					t.Fatal(err)
				}
				sameRun(t, label, got, ref, res, refRes)
			}
		})
		t.Run("pagerank/"+cell.name, func(t *testing.T) {
			t.Parallel()
			label := "pagerank/" + cell.name
			g := directed()
			const eps = 0.05
			prog := algorithms.PageRank(eps)
			if cell.mode == BSP {
				prog = algorithms.PageRankAggregated(eps)
			}
			got, res := runProcesses(t, directed, prog, processConfig(cell.mode, cell.sync), "")
			reconcile(t, label, TransportTCP, res)
			if !res.Converged {
				t.Fatalf("%s: did not converge", label)
			}
			if cell.mode == BSP {
				ref, refRes, _, err := Run(g, prog, processConfig(cell.mode, cell.sync))
				if err != nil {
					t.Fatal(err)
				}
				sameRun(t, label, got, ref, res, refRes)
				return
			}
			maxIn := 0
			for v := 0; v < g.NumVertices(); v++ {
				maxIn = max(maxIn, g.InDegree(graph.VertexID(v)))
			}
			if r, bound := equivPagerankResidual(g, got, true), 4*eps*float64(1+maxIn); r > bound {
				t.Errorf("%s: residual %v exceeds bound %v", label, r, bound)
			}
		})
		t.Run("coloring/"+cell.name, func(t *testing.T) {
			t.Parallel()
			label := "coloring/" + cell.name
			g := undirected()
			cfg := processConfig(cell.mode, cell.sync)
			if cell.mode == BSP {
				// BSP coloring oscillates (Figure 2); bound it and compare
				// the deterministic non-converged state.
				cfg.MaxSupersteps = 30
			}
			got, res := runProcesses(t, undirected, algorithms.Coloring(), cfg, "")
			reconcile(t, label, TransportTCP, res)
			if cell.mode == BSP {
				ref, refRes, _, err := Run(g, algorithms.Coloring(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				sameRun(t, label, got, ref, res, refRes)
				return
			}
			if !res.Converged {
				t.Fatalf("%s: did not converge", label)
			}
			if cell.sync.Serializable() {
				if err := algorithms.ValidateColoring(g, got); err != nil {
					t.Errorf("%s: %v", label, err)
				}
			}
		})
	}
}

// TestMultiProcessAggregatedHalt: aggregated PageRank never votes to
// halt, so termination depends on the aggregates flowing up in StepDone,
// merging on the coordinator, feeding MasterHalt, and flowing back down in
// StepStart for Aggregated(). Token techniques consult MasterHalt once per
// rotation (haltWindow), which the coordinator runs too.
func TestMultiProcessAggregatedHalt(t *testing.T) {
	equivRequireLoopback(t)
	build := func() *graph.Graph { return equivGraph(false) }
	for _, sync := range []Sync{TokenDual, PartitionLock} {
		t.Run(sync.String(), func(t *testing.T) {
			_, res := runProcesses(t, build, algorithms.PageRankAggregated(0.05), processConfig(Async, sync), "")
			if !res.Converged {
				t.Fatalf("did not converge in %d supersteps", res.Supersteps)
			}
			if sync == TokenDual && res.Supersteps%(3*2) != 0 {
				t.Fatalf("halted after %d supersteps, not at the end of a token rotation", res.Supersteps)
			}
		})
	}
}

// TestMultiProcessBudgetedSpill: a tiny message budget makes every worker
// process spill its inbound batches to disk and merge them at the barrier;
// the run still matches the unbounded in-process run bitwise, and no
// worker process leaves its spill directory behind.
func TestMultiProcessBudgetedSpill(t *testing.T) {
	equivRequireLoopback(t)
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	build := func() *graph.Graph { return equivGraph(false) }
	prog := algorithms.PageRankAggregated(0.05)
	want, wantRes, _, err := Run(build(), prog, processConfig(BSP, SyncNone))
	if err != nil {
		t.Fatal(err)
	}
	cfg := processConfig(BSP, SyncNone)
	cfg.MsgMemoryBudget = budgetTiny
	got, res := runProcesses(t, build, prog, cfg, "")
	checkBudgetRun(t, "tiny", BSP, budgetTiny, res)
	sameRun(t, "tiny", got, want, res, wantRes)
	if left, err := os.ReadDir(tmp); err != nil || len(left) > 0 {
		t.Errorf("worker processes left %d entries in the temp dir (%v)", len(left), err)
	}
}

// TestMultiProcessRejects: options that need the master inside worker
// memory are refused up front, naming the option.
func TestMultiProcessRejects(t *testing.T) {
	for name, mut := range map[string]func(*Config){
		"Mode BAP":        func(c *Config) { c.Mode = BAP },
		"Recovery":        func(c *Config) { c.Recovery = RecoverConfined },
		"CheckpointEvery": func(c *Config) { c.CheckpointEvery, c.CheckpointDir = 2, t.TempDir() },
		"TrackHistory":    func(c *Config) { c.TrackHistory = true },
		"WatchdogTimeout": func(c *Config) { c.WatchdogTimeout = 1 },
	} {
		cfg := processConfig(Async, PartitionLock)
		mut(&cfg)
		_, _, err := Coordinate(nil, equivGraph(false), algorithms.SSSP(0), cfg, wire.Job{})
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: Coordinate returned %v, want an error naming it", name, err)
		}
	}
}

// TestMultiProcessWorkerLoss: a worker process that loses its coordinator
// mid-run tears its sockets down; the coordinator and the other workers
// must then fail with an error instead of hanging. The program never
// halts, so the run is still going when the connection drops.
func TestMultiProcessWorkerLoss(t *testing.T) {
	equivRequireLoopback(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cfg := processConfig(Async, PartitionLock)
	cfg.MaxSupersteps = 1 << 30
	prog := model.Program[int32, int32]{
		Semantics: model.Combine,
		Combine:   func(a, b int32) int32 { return a + b },
		Compute:   func(ctx model.Context[int32, int32], _ []int32) { ctx.SendToAllOut(1) },
		MsgBytes:  4,
	}
	errs := make(chan error, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go func() {
			s, err := Join(ln.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer s.Close()
			if s.Job.You == 1 {
				time.AfterFunc(200*time.Millisecond, s.Close)
			}
			errs <- Work(s, equivGraph(true), prog)
		}()
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := Coordinate(ln, equivGraph(true), prog, cfg, wire.Job{})
		done <- err
	}()
	deadline := time.After(time.Minute)
	for i := 0; i <= cfg.Workers; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Error("a worker finished a run that lost a peer")
			}
		case err := <-done:
			if err == nil {
				t.Error("the coordinator finished a run that lost a worker")
			}
		case <-deadline:
			t.Fatal("the run hung after losing a worker")
		}
	}
}
