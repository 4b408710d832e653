package bench

// partitionq.go is the locality experiment: how much does a smarter
// placement buy every synchronization technique? It builds a community
// graph whose structure a streaming partitioner can exploit (hash
// placement cannot), then runs the fig1-style technique spectrum under
// hash and LDG placement at the same partition count and records each
// run's partition-quality report alongside the usual counters. The
// acceptance bar is enforced here as panics, not rows: the streaming
// partitioner must cut the boundary-vertex fraction and the
// cross-partition message bytes by at least 25% versus hash, stay inside
// the (1+eps)n/P balance bound, and leave the deterministic BSP PageRank
// answer bitwise unchanged.
// TestPartitionQualityAcceptance runs this gate in CI; `benchtab -exp
// partition` records it into BENCH_NNNN.json.

import (
	"fmt"
	"math/rand"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/engine"
	"serialgraph/internal/graph"
	"serialgraph/internal/partition"
)

const (
	// partCommunitySize is the vertex count of one community — chosen
	// below the streaming capacity ceil(1.1*n/P) so a partitioner that
	// recognizes the community can keep it whole.
	partCommunitySize = 24
	// partReps repeats each deterministic timing run, keeping the
	// fastest (same discipline as the flow experiment).
	partReps = 3
)

// communityGraph builds comms communities of `size` vertices each, with
// contiguous IDs per community: an intra-community cycle plus three
// random intra-community chords per vertex, and two bridge edges from
// each community to the next (a ring of communities). The result is the
// best case for locality-aware placement — almost all edges are
// intra-community — while hash placement scatters every community
// across all partitions.
func communityGraph(comms, size int, seed int64) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(comms * size)
	for c := 0; c < comms; c++ {
		base := c * size
		for i := 0; i < size; i++ {
			u := graph.VertexID(base + i)
			b.AddEdge(u, graph.VertexID(base+(i+1)%size))
			for t := 0; t < 3; t++ {
				if v := graph.VertexID(base + r.Intn(size)); v != u {
					b.AddEdge(u, v)
				}
			}
		}
		next := ((c + 1) % comms) * size
		for t := 0; t < 2; t++ {
			b.AddEdge(graph.VertexID(base+r.Intn(size)), graph.VertexID(next+r.Intn(size)))
		}
	}
	return b.BuildUndirected()
}

// PartitionQuality runs the locality experiment and returns one row per
// (technique, partitioner) cell. It panics on any acceptance violation:
// a balance-bound breach, a boundary-fraction or data-bytes reduction
// under 25%, a BSP divergence across partitioners, or an invalid
// coloring under a serializable technique.
func PartitionQuality(cfg Config) []Row {
	cfg = cfg.withDefaults()
	workers := cfg.Workers[0]
	ppw := workers // Giraph's layout: as many partitions per worker as workers
	p := workers * ppw
	comms := int(float64(p) * cfg.Scale)
	if comms < workers {
		comms = workers
	}
	g := communityGraph(comms, partCommunitySize, 20)
	n := g.NumVertices()
	capacity := (partition.StreamOptions{}).Capacity(n, p)
	cfg.logf("partition: community graph n=%d m=%d (%d communities of %d), P=%d, capacity=%d",
		n, g.NumEdges(), comms, partCommunitySize, p, capacity)

	engCfg := func(kind string, mode engine.Mode, sync engine.Sync) engine.Config {
		c := engine.Config{
			Workers: workers, PartitionsPerWorker: ppw, Mode: mode, Sync: sync,
			Latency: cfg.latencyModel(), Seed: 1, DetailedStats: cfg.Trace,
			MaxSupersteps: 2000,
		}
		if kind != partition.KindHash {
			c.Partitioner = func(g *graph.Graph, p, w int) *partition.Map {
				m, err := partition.New(kind, g, p, w, 1)
				if err != nil {
					panic(err)
				}
				return m
			}
		}
		return c
	}
	mkRow := func(alg, cell, kind string, res engine.Result) Row {
		m := res.Metrics
		q := res.Partition
		return Row{
			Experiment: "partition", Algorithm: alg, Dataset: "community",
			Workers: workers, Technique: cell + "/" + kind,
			Time: res.ComputeTime, Supersteps: res.Supersteps,
			Executions: res.Executions, DataMsgs: res.Net.DataMessages,
			DataBytes: res.Net.DataBytes, CtrlMsgs: res.Net.ControlMessages,
			Forks: res.ForkSends, MaxConc: res.MaxConcurrency,
			Converged: res.Converged, Partition: &q,
			Metrics: &m, Trace: res.SuperstepStats,
		}
	}

	var rows []Row
	var hashQ partition.Quality
	var hashPR Row
	var hashVals []float64
	for _, kind := range []string{partition.KindHash, partition.KindLDG} {
		// BSP PageRank: deterministic answer and superstep count, so this
		// cell carries both the bitwise-equivalence gate and the
		// cross-partition traffic comparison. Best wall time of partReps.
		var pr []float64
		var prRes engine.Result
		for rep := 0; rep < partReps; rep++ {
			vals, res, _, err := engine.Run(g, algorithms.PageRankAggregated(0.01),
				engCfg(kind, engine.BSP, engine.SyncNone))
			if err != nil {
				panic(err)
			}
			if !res.Converged {
				panic(fmt.Sprintf("bench: BSP pagerank under %s did not converge in %d supersteps", kind, res.Supersteps))
			}
			if rep == 0 || res.ComputeTime < prRes.ComputeTime {
				pr, prRes = vals, res
			}
		}
		prRow := mkRow("pagerank", "bsp-none", kind, prRes)
		rows = append(rows, prRow)
		q := prRes.Partition

		if kind == partition.KindHash {
			hashQ, hashPR, hashVals = q, prRow, pr
		} else {
			// The acceptance gates, in the issue's words: balance bound,
			// >=25% boundary-fraction reduction, >=25% cross-partition
			// byte reduction, bitwise-identical deterministic results.
			if q.MaxLoad > capacity {
				panic(fmt.Sprintf("bench: %s max load %d exceeds streaming capacity %d", kind, q.MaxLoad, capacity))
			}
			if q.BoundaryFraction > 0.75*hashQ.BoundaryFraction {
				panic(fmt.Sprintf("bench: %s boundary fraction %.4f is not a >=25%% reduction on hash %.4f",
					kind, q.BoundaryFraction, hashQ.BoundaryFraction))
			}
			if float64(prRow.DataBytes) > 0.75*float64(hashPR.DataBytes) {
				panic(fmt.Sprintf("bench: %s cross-partition bytes %d is not a >=25%% reduction on hash %d",
					kind, prRow.DataBytes, hashPR.DataBytes))
			}
			if prRow.Supersteps != hashPR.Supersteps {
				panic(fmt.Sprintf("bench: BSP pagerank took %d supersteps under %s, %d under hash",
					prRow.Supersteps, kind, hashPR.Supersteps))
			}
			for i := range pr {
				if pr[i] != hashVals[i] {
					panic(fmt.Sprintf("bench: BSP pagerank[%d] = %v under %s, %v under hash", i, pr[i], kind, hashVals[i]))
				}
			}
		}
		cfg.logf("partition: %-6s boundary=%.3f cut=%.3f repl=%.2f skew=%.2f pr-bytes=%d",
			kind, q.BoundaryFraction, q.CutFraction, q.ReplicationFactor, q.BalanceSkew, prRow.DataBytes)

		// The serializable technique spectrum on greedy coloring — the
		// token and lock traffic every boundary vertex causes is exactly
		// what better placement is supposed to shrink. Async coloring
		// under a serializable technique must converge to a proper
		// coloring regardless of placement.
		for _, sync := range []engine.Sync{engine.TokenSingle, engine.TokenDual, engine.PartitionLock} {
			vals, res, _, err := engine.Run(g, algorithms.Coloring(), engCfg(kind, engine.Async, sync))
			if err != nil {
				panic(err)
			}
			if !res.Converged {
				panic(fmt.Sprintf("bench: %v coloring under %s did not converge in %d supersteps", sync, kind, res.Supersteps))
			}
			if cerr := algorithms.ValidateColoring(g, vals); cerr != nil {
				panic(fmt.Sprintf("bench: %v coloring under %s is invalid: %v", sync, kind, cerr))
			}
			rows = append(rows, mkRow("coloring", sync.String(), kind, res))
		}
	}
	return rows
}
