package engine

// Cross-schedule equivalence matrix: every synchronization technique ×
// {SSSP, PageRank, coloring} × {1, 2, 4} compute threads per worker. The
// thread count decides which thread runs which of a worker's partitions
// and in what order — never what they compute — so:
//
//   - BSP cells demand bitwise-identical values and superstep counts
//     across thread counts (per-superstep folds happen in fixed in-slot
//     order, independent of which thread ran which partition when).
//   - SSSP has a unique fixed point under every technique: converged
//     distances must equal the serial reference exactly on every cell.
//   - Async PageRank and coloring are schedule-dependent; those cells
//     assert the algorithm-level contract per thread count (convergence,
//     proper coloring under serializable techniques).

import (
	"fmt"
	"testing"

	"serialgraph/internal/algorithms"
)

func scheduleConfig(mode Mode, sync Sync, threads int) Config {
	return Config{
		Workers: 3, PartitionsPerWorker: 4, ThreadsPerWorker: threads,
		Mode: mode, Sync: sync, Seed: 1131, MaxSupersteps: 200,
	}
}

func TestSchedulerEquivalenceMatrix(t *testing.T) {
	threads := []int{1, 2, 4}
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
	for _, cell := range cells {
		cell := cell
		t.Run("sssp/"+cell.name, func(t *testing.T) {
			t.Parallel()
			g := equivGraph(false)
			want := algorithms.ShortestPaths(g, 0)
			for _, th := range threads {
				label := "sssp/" + cell.name + fmt.Sprintf("/threads=%d", th)
				cfg := scheduleConfig(cell.mode, cell.sync, th)
				dist, res, _, err := Run(g, algorithms.SSSP(0), cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !res.Converged {
					t.Fatalf("%s: did not converge", label)
				}
				for v := range want {
					if dist[v] != want[v] {
						t.Fatalf("%s: dist[%d] = %v, want %v", label, v, dist[v], want[v])
					}
				}
			}
		})
		t.Run("pagerank/"+cell.name, func(t *testing.T) {
			t.Parallel()
			g := equivGraph(false)
			const eps = 0.05
			aggregated := cell.mode == BSP
			var basePR []float64
			baseSteps := -1
			for _, th := range threads {
				label := "pagerank/" + cell.name + fmt.Sprintf("/threads=%d", th)
				prog := algorithms.PageRank(eps)
				if aggregated {
					prog = algorithms.PageRankAggregated(eps)
				}
				cfg := scheduleConfig(cell.mode, cell.sync, th)
				pr, res, _, err := Run(g, prog, cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !res.Converged {
					t.Fatalf("%s: did not converge", label)
				}
				if cell.mode == BSP {
					// Schedule-independent determinism: bitwise equality
					// with the single-thread baseline.
					if basePR == nil {
						basePR, baseSteps = pr, res.Supersteps
					} else {
						if res.Supersteps != baseSteps {
							t.Fatalf("%s: %d supersteps, single-thread baseline took %d",
								label, res.Supersteps, baseSteps)
						}
						for v := range basePR {
							if basePR[v] != pr[v] {
								t.Fatalf("%s: diverges from single-thread baseline at %d: %v vs %v",
									label, v, pr[v], basePR[v])
							}
						}
					}
				}
			}
		})
		t.Run("coloring/"+cell.name, func(t *testing.T) {
			t.Parallel()
			g := equivGraph(true)
			var baseColors []int32
			baseConverged := false
			for i, th := range threads {
				label := "coloring/" + cell.name + fmt.Sprintf("/threads=%d", th)
				cfg := scheduleConfig(cell.mode, cell.sync, th)
				if cell.mode == BSP {
					// BSP coloring oscillates (Figure 2); bound it and
					// compare the deterministic non-converged state.
					cfg.MaxSupersteps = 30
				}
				colors, res, _, err := Run(g, algorithms.Coloring(), cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if cell.mode != BSP && !res.Converged {
					t.Fatalf("%s: did not converge", label)
				}
				if res.Converged && cell.sync.Serializable() {
					if err := algorithms.ValidateColoring(g, colors); err != nil {
						t.Errorf("%s: %v", label, err)
					}
				}
				if cell.mode != BSP {
					continue
				}
				if i == 0 {
					baseColors, baseConverged = colors, res.Converged
					continue
				}
				if res.Converged != baseConverged {
					t.Fatalf("%s: convergence differs from single-thread baseline", label)
				}
				for v := range baseColors {
					if baseColors[v] != colors[v] {
						t.Fatalf("%s: diverges from single-thread baseline at %d: %d vs %d",
							label, v, colors[v], baseColors[v])
					}
				}
			}
		})
	}
}
