package engine

import (
	"slices"
	"testing"

	"serialgraph/internal/generate"
	"serialgraph/internal/graph"
	"serialgraph/internal/partition"
)

// perVertexTokenAllowed is the token-passing filter as runPartition used to
// evaluate it per vertex on every pass: the oracle for the precomputed
// lists.
func perVertexTokenAllowed(sync Sync, classes []partition.Class, holds bool, myLocalIdx, localIdx int) func(graph.VertexID) bool {
	if sync == TokenSingle {
		return func(v graph.VertexID) bool {
			c := classes[v]
			if c == partition.RemoteBoundary || c == partition.MixedBoundary {
				return holds
			}
			return true
		}
	}
	return func(v graph.VertexID) bool {
		switch classes[v] {
		case partition.PInternal:
			return true
		case partition.LocalBoundary:
			return myLocalIdx == localIdx
		case partition.RemoteBoundary:
			return holds
		default: // MixedBoundary
			return holds && myLocalIdx == localIdx
		}
	}
}

// TestTokenVertLists walks two full global-token rotations and checks that,
// at every superstep, the list each partition of each worker executes is
// pm.Vertices(p) filtered by the per-vertex rule, in the same order (the
// sequential pass order the async semantics depend on).
func TestTokenVertLists(t *testing.T) {
	b := graph.NewBuilder(7)
	for _, e := range [][2]graph.VertexID{{0, 1}, {1, 3}, {2, 5}, {3, 4}, {4, 5}, {5, 6}} {
		b.AddEdge(e[0], e[1])
	}
	fig4 := b.BuildUndirected()
	rmat := generate.RMAT(generate.RMATConfig{Scale: 9, EdgeFactor: 6, Seed: 3})
	cases := []struct {
		name    string
		g       *graph.Graph
		pm      *partition.Map
		workers int
	}{
		// Figures 4 and 5: P0{v0} P1{v1,v2} on worker 0, P2{v3,v4} P3{v5,v6}
		// on worker 1.
		{"figure4", fig4, partition.NewExplicit(fig4, []partition.ID{0, 1, 1, 2, 2, 3, 3}, []int32{0, 0, 1, 1}, 2), 2},
		{"rmat", rmat, partition.NewHash(rmat, 12, 4, 7), 4},
	}
	for _, tc := range cases {
		classes := partition.Classify(tc.g, tc.pm)
		for _, sync := range []Sync{TokenSingle, TokenDual} {
			cfg := Config{Workers: tc.workers, PartitionsPerWorker: tc.pm.P / tc.workers, Mode: Async, Sync: sync}
			r := &runner[struct{}, struct{}]{cfg: cfg.WithDefaults()}
			for w := 0; w < tc.workers; w++ {
				parts := tc.pm.PartitionsOfWorker(w)
				lists := tokenVertLists(sync, tc.pm, classes, parts)
				for s := 0; s < 2*tc.pm.P; s++ {
					holder, localIdx := r.tokenState(s)
					for i, p := range parts {
						allowed := perVertexTokenAllowed(sync, classes, holder == w, i, localIdx)
						var want []graph.VertexID
						for _, v := range tc.pm.Vertices(p) {
							if allowed(v) {
								want = append(want, v)
							}
						}
						if got := lists[i][b2i(holder == w)][b2i(i == localIdx)]; !slices.Equal(got, want) {
							t.Errorf("%s %v worker %d superstep %d partition %d: list %v, want %v",
								tc.name, sync, w, s, p, got, want)
						}
					}
				}
			}
		}
	}
}
