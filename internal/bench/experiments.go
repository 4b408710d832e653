package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/engine"
	"serialgraph/internal/generate"
	"serialgraph/internal/giraphx"
	"serialgraph/internal/graph"
	"serialgraph/internal/partition"
)

// Table1 prints the dataset table: the paper's original statistics next to
// the synthetic analogs actually used here.
func Table1(w io.Writer, cfg Config) {
	cfg = cfg.withDefaults()
	gc := newGraphCache(cfg)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "graph\tpaper |V|\tpaper |E|\tpaper maxdeg\tanalog |V|\tanalog |E| (und.)\tanalog maxdeg")
	for _, d := range generate.Catalog {
		g := gc.directed(d.Name)
		u := gc.undirected(d.Name)
		s := graph.Summarize(g)
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d (%d)\t%d\n",
			d.Name, d.PaperVertices, d.PaperEdges, d.PaperMaxDegree,
			s.Vertices, s.Edges, u.NumEdges(), s.MaxDegree)
	}
	tw.Flush()
}

// Fig1Spectrum measures the spectrum of Figure 1 empirically: for each
// technique on the OR analog, the peak number of concurrently executing
// vertices (parallelism) and the control message count (communication).
// The spectrum's maximal-parallelism anchor — no serializability at all —
// is measured with PageRank under plain BSP (Pregel) and plain AP (Giraph
// async); these two rows are also the hot-path perf reference
// configurations tracked across BENCH_NNNN.json trajectory points.
func Fig1Spectrum(cfg Config) []Row {
	cfg = cfg.withDefaults()
	gc := newGraphCache(cfg)
	g := gc.undirected("OR")
	workers := cfg.Workers[0]
	var rows []Row
	gd := gc.directed("OR")
	eps := prThreshold("OR")
	// Fixed 50-superstep budget: BSP PageRank oscillates rather than
	// converging (the Figure 2 phenomenon applies to ranks too), so the
	// anchor rows run a deterministic-length sweep — which also makes them
	// stable workloads for cross-commit phase-time comparison.
	for _, mode := range []engine.Mode{engine.BSP, engine.Async} {
		cfg.logf("fig1 %v none ...", mode)
		rows = append(rows, cfg.runPregelMode("fig1", "pagerank", "OR", gd, workers,
			mode, engine.SyncNone, 50, func() any { return algorithms.PageRank(eps) }))
	}
	for _, sync := range []engine.Sync{engine.TokenSingle, engine.TokenDual, engine.PartitionLock} {
		cfg.logf("fig1 %v ...", sync)
		rows = append(rows, cfg.runPregel("fig1", "coloring", "OR", g, workers, sync,
			func() any { return algorithms.Coloring() }))
	}
	cfg.logf("fig1 vertex-lock ...")
	rows = append(rows, cfg.runGAS("fig1", "coloring", "OR", g, workers,
		func() any { return algorithms.ColoringGAS() }))
	return rows
}

// Fig23 demonstrates the coloring non-termination of Figures 2 and 3 on
// the paper's 4-vertex example and its resolution under serializability.
func Fig23(w io.Writer) {
	b := graph.NewBuilder(4)
	for _, e := range [][2]graph.VertexID{{0, 2}, {0, 3}, {1, 2}, {1, 3}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.BuildUndirected()

	run := func(mode engine.Mode, sync engine.Sync, max int) (colors []int32, res engine.Result) {
		colors, res, _, err := engine.Run(g, algorithms.ColoringRecolor(), engine.Config{
			Workers: 2, PartitionsPerWorker: 1, Mode: mode, Sync: sync,
			MaxSupersteps: max, Seed: 1,
		})
		if err != nil {
			panic(err)
		}
		return colors, res
	}

	colors, res := run(engine.BSP, engine.SyncNone, 12)
	fmt.Fprintf(w, "figure 2  BSP:                 colors=%v after %d supersteps, converged=%v (oscillates forever)\n",
		colors, res.Supersteps, res.Converged)
	colors, res = run(engine.Async, engine.SyncNone, 12)
	fmt.Fprintf(w, "figure 3  AP (no sync):        colors=%v after %d supersteps, converged=%v (may cycle; schedule dependent)\n",
		colors, res.Supersteps, res.Converged)
	colors, res = run(engine.Async, engine.PartitionLock, 100)
	fmt.Fprintf(w, "resolved  AP + partition lock: colors=%v after %d supersteps, converged=%v\n",
		colors, res.Supersteps, res.Converged)
}

// Giraphx reproduces the §7.3 comparison on the OR analog: the
// in-algorithm Giraphx techniques against the system-level ones.
func Giraphx(cfg Config) []Row {
	cfg = cfg.withDefaults()
	gc := newGraphCache(cfg)
	g := gc.undirected("OR")
	workers := cfg.Workers[0]
	var rows []Row

	// Giraphx single-layer token passing, in-algorithm on BSP.
	pm := partition.NewHash(g, workers, workers, 1)
	cfg.logf("giraphx token ...")
	prog := giraphx.TokenColoring(g, pm)
	_, res, _, err := engine.Run(g, prog, engine.Config{
		Workers: workers, PartitionsPerWorker: 1, Mode: engine.BSP,
		Partitioner: func(*graph.Graph, int, int) *partition.Map { return pm },
		Latency:     cfg.latencyModel(),
	})
	if err != nil {
		panic(err)
	}
	rows = append(rows, Row{Experiment: "giraphx", Algorithm: "coloring", Dataset: "OR",
		Workers: workers, Technique: "giraphx-token (in-algorithm, BSP)",
		Time: res.ComputeTime, Supersteps: res.Supersteps, Executions: res.Executions,
		DataMsgs: res.Net.DataMessages, DataBytes: res.Net.DataBytes,
		CtrlMsgs: res.Net.ControlMessages, Converged: res.Converged})

	// Giraphx vertex-based locking, in-algorithm on BSP (Proposition 1).
	cfg.logf("giraphx lock ...")
	_, res, _, err = engine.Run(g, giraphx.LockColoring(g), engine.Config{
		Workers: workers, Mode: engine.BSP, Seed: 1,
		Latency: cfg.latencyModel(),
	})
	if err != nil {
		panic(err)
	}
	rows = append(rows, Row{Experiment: "giraphx", Algorithm: "coloring", Dataset: "OR",
		Workers: workers, Technique: "giraphx-lock (in-algorithm, BSP)",
		Time: res.ComputeTime, Supersteps: res.Supersteps, Executions: res.Executions,
		DataMsgs: res.Net.DataMessages, DataBytes: res.Net.DataBytes,
		CtrlMsgs: res.Net.ControlMessages, Converged: res.Converged})

	// System-level comparisons.
	for _, sync := range []engine.Sync{engine.TokenSingle, engine.TokenDual, engine.PartitionLock} {
		cfg.logf("giraphx baseline %v ...", sync)
		rows = append(rows, cfg.runPregel("giraphx", "coloring", "OR", g, workers, sync,
			func() any { return algorithms.Coloring() }))
	}
	cfg.logf("giraphx baseline vertex-lock ...")
	rows = append(rows, cfg.runGAS("giraphx", "coloring", "OR", g, workers,
		func() any { return algorithms.ColoringGAS() }))
	return rows
}

// AblationPartitions sweeps partitions-per-worker for partition-based
// locking (§7.1: Giraph's default is |W|; more partitions cut more edges
// and add forks, fewer restrict parallelism).
func AblationPartitions(cfg Config) []Row {
	cfg = cfg.withDefaults()
	gc := newGraphCache(cfg)
	g := gc.directed("OR")
	workers := cfg.Workers[0]
	var rows []Row
	for _, ppw := range []int{1, workers / 2, workers, 2 * workers, 4 * workers} {
		if ppw < 1 {
			continue
		}
		cfg.logf("ablation ppw=%d ...", ppw)
		_, res, _, err := engine.Run(g, algorithms.PageRank(prThreshold("OR")), engine.Config{
			Workers: workers, PartitionsPerWorker: ppw, Mode: engine.Async,
			Sync: engine.PartitionLock, Latency: cfg.latencyModel(), Seed: 1,
		})
		if err != nil {
			panic(err)
		}
		rows = append(rows, Row{Experiment: "ablation-partitions", Algorithm: "pagerank",
			Dataset: "OR", Workers: workers,
			Technique: fmt.Sprintf("partition-lock ppw=%d (|P|=%d)", ppw, res.Partitions),
			Time:      res.ComputeTime, Supersteps: res.Supersteps, Executions: res.Executions,
			DataMsgs: res.Net.DataMessages, DataBytes: res.Net.DataBytes,
			CtrlMsgs: res.Net.ControlMessages, Forks: res.ForkSends, Converged: res.Converged})
	}
	return rows
}

// AblationDegenerate compares partition-based locking at its |P| → |V|
// extreme against true vertex-based locking on the GAS engine (§5.4: with
// one vertex per partition the techniques coincide conceptually, and the
// fork explosion appears in both).
func AblationDegenerate(cfg Config) []Row {
	cfg = cfg.withDefaults()
	gc := newGraphCache(cfg)
	g := gc.undirected("OR")
	workers := cfg.Workers[0]
	n := g.NumVertices()
	var rows []Row

	cfg.logf("degenerate |P|=|V| partition lock ...")
	_, res, _, err := engine.Run(g, algorithms.Coloring(), engine.Config{
		Workers: workers, PartitionsPerWorker: (n + workers - 1) / workers,
		Mode: engine.Async, Sync: engine.PartitionLock,
		Latency: cfg.latencyModel(), Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	rows = append(rows, Row{Experiment: "ablation-degenerate", Algorithm: "coloring",
		Dataset: "OR", Workers: workers, Technique: fmt.Sprintf("partition-lock |P|=%d≈|V|", res.Partitions),
		Time: res.ComputeTime, Supersteps: res.Supersteps, Executions: res.Executions,
		DataMsgs: res.Net.DataMessages, DataBytes: res.Net.DataBytes,
		CtrlMsgs: res.Net.ControlMessages,
		Forks:    res.ForkSends, Converged: res.Converged})

	cfg.logf("degenerate defaults partition lock ...")
	rows = append(rows, cfg.runPregel("ablation-degenerate", "coloring", "OR", g, workers,
		engine.PartitionLock, func() any { return algorithms.Coloring() }))

	cfg.logf("degenerate vertex lock (GAS) ...")
	rows = append(rows, cfg.runGAS("ablation-degenerate", "coloring", "OR", g, workers,
		func() any { return algorithms.ColoringGAS() }))
	return rows
}

// AblationPartitioner compares random hash, range, and LDG streaming
// partitionings under partition-based locking: better partitionings cut
// fewer edges, which means fewer forks and smaller flush traffic.
func AblationPartitioner(cfg Config) []Row {
	cfg = cfg.withDefaults()
	gc := newGraphCache(cfg)
	g := gc.directed("OR")
	workers := cfg.Workers[0]
	var rows []Row
	for _, pt := range []struct {
		name string
		mk   func(g *graph.Graph, p, w int) *partition.Map
	}{
		{"hash", func(g *graph.Graph, p, w int) *partition.Map { return partition.NewHash(g, p, w, 1) }},
		{"range", partition.NewRange},
		{"ldg", partition.NewLDG},
	} {
		cfg.logf("ablation partitioner %s ...", pt.name)
		_, res, _, err := engine.Run(g, algorithms.PageRank(prThreshold("OR")), engine.Config{
			Workers: workers, Mode: engine.Async, Sync: engine.PartitionLock,
			Partitioner: pt.mk, Latency: cfg.latencyModel(), Seed: 1,
		})
		if err != nil {
			panic(err)
		}
		rows = append(rows, Row{Experiment: "ablation-partitioner", Algorithm: "pagerank",
			Dataset: "OR", Workers: workers,
			Technique: fmt.Sprintf("%s (cut %.0f%%)", pt.name, 100*res.Partition.CutFraction),
			Time:      res.ComputeTime, Supersteps: res.Supersteps, Executions: res.Executions,
			DataMsgs: res.Net.DataMessages, DataBytes: res.Net.DataBytes,
			CtrlMsgs: res.Net.ControlMessages, Forks: res.ForkSends, Converged: res.Converged})
	}
	return rows
}

// AblationCombining measures sender-side combining's effect on SSSP (the
// min-combiner algorithm): Giraph's in-buffer combining shrinks remote
// batches at no cost in correctness.
func AblationCombining(cfg Config) []Row {
	cfg = cfg.withDefaults()
	gc := newGraphCache(cfg)
	g := gc.directed("OR")
	workers := cfg.Workers[0]
	var rows []Row
	for _, disable := range []bool{false, true} {
		name := "sender-combine on"
		if disable {
			name = "sender-combine off"
		}
		cfg.logf("ablation combining %s ...", name)
		_, res, _, err := engine.Run(g, algorithms.SSSP(0), engine.Config{
			Workers: workers, Mode: engine.Async, Sync: engine.PartitionLock,
			Latency: cfg.latencyModel(), Seed: 1, DisableSenderCombine: disable,
		})
		if err != nil {
			panic(err)
		}
		rows = append(rows, Row{Experiment: "ablation-combining", Algorithm: "sssp",
			Dataset: "OR", Workers: workers, Technique: name,
			Time: res.ComputeTime, Supersteps: res.Supersteps, Executions: res.Executions,
			DataMsgs: res.Net.DataMessages, DataBytes: res.Net.DataBytes,
			CtrlMsgs: res.Net.ControlMessages, Forks: res.ForkSends, Converged: res.Converged})
	}
	return rows
}

// AblationSkip measures the §5.4 halted-partition skip optimization on a
// multi-superstep workload.
func AblationSkip(cfg Config) []Row {
	cfg = cfg.withDefaults()
	gc := newGraphCache(cfg)
	g := gc.directed("OR")
	workers := cfg.Workers[0]
	var rows []Row
	for _, disable := range []bool{false, true} {
		name := "halted-partition skip on"
		if disable {
			name = "halted-partition skip off"
		}
		cfg.logf("ablation skip %s ...", name)
		_, res, _, err := engine.Run(g, algorithms.SSSP(0), engine.Config{
			Workers: workers, Mode: engine.Async, Sync: engine.PartitionLock,
			Latency: cfg.latencyModel(), Seed: 1, DisableHaltedPartitionSkip: disable,
		})
		if err != nil {
			panic(err)
		}
		rows = append(rows, Row{Experiment: "ablation-skip", Algorithm: "sssp",
			Dataset: "OR", Workers: workers, Technique: name,
			Time: res.ComputeTime, Supersteps: res.Supersteps, Executions: res.Executions,
			DataMsgs: res.Net.DataMessages, DataBytes: res.Net.DataBytes,
			CtrlMsgs: res.Net.ControlMessages, Forks: res.ForkSends, Converged: res.Converged})
	}
	return rows
}

// MISComparison contrasts the serializable one-pass greedy MIS with Luby's
// non-serializable randomized MIS — the extension experiment showing
// serializability simplifying a second algorithm class.
func MISComparison(cfg Config) []Row {
	cfg = cfg.withDefaults()
	gc := newGraphCache(cfg)
	g := gc.undirected("OR")
	workers := cfg.Workers[0]
	var rows []Row

	cfg.logf("mis greedy (partition lock) ...")
	states, res, _, err := engine.Run(g, algorithms.MISGreedy(), engine.Config{
		Workers: workers, Mode: engine.Async, Sync: engine.PartitionLock,
		Latency: cfg.latencyModel(), Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	if err := algorithms.ValidateMIS(g, states); err != nil {
		panic(err)
	}
	rows = append(rows, Row{Experiment: "mis", Algorithm: "mis-greedy", Dataset: "OR",
		Workers: workers, Technique: "partition-lock (serializable)",
		Time: res.ComputeTime, Supersteps: res.Supersteps, Executions: res.Executions,
		DataMsgs: res.Net.DataMessages, DataBytes: res.Net.DataBytes,
		CtrlMsgs: res.Net.ControlMessages,
		Forks:    res.ForkSends, Converged: res.Converged})

	cfg.logf("mis luby (BSP) ...")
	vals, res, _, err := engine.Run(g, algorithms.MISLuby(7), engine.Config{
		Workers: workers, Mode: engine.BSP, Latency: cfg.latencyModel(), Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	if err := algorithms.ValidateMIS(g, algorithms.LubyStates(vals)); err != nil {
		panic(err)
	}
	rows = append(rows, Row{Experiment: "mis", Algorithm: "mis-luby", Dataset: "OR",
		Workers: workers, Technique: "BSP (no serializability needed)",
		Time: res.ComputeTime, Supersteps: res.Supersteps, Executions: res.Executions,
		DataMsgs: res.Net.DataMessages, DataBytes: res.Net.DataBytes,
		CtrlMsgs:  res.Net.ControlMessages,
		Converged: res.Converged})
	return rows
}

// AblationBAP compares the barriered AP engine with the barrierless BAP
// engine (Giraph Unchained's model, which the paper's Giraph async builds
// on) under partition-based locking.
func AblationBAP(cfg Config) []Row {
	cfg = cfg.withDefaults()
	gc := newGraphCache(cfg)
	g := gc.directed("OR")
	workers := cfg.Workers[0]
	var rows []Row
	for _, mode := range []engine.Mode{engine.Async, engine.BAP} {
		name := "AP (global barriers)"
		if mode == engine.BAP {
			name = "BAP (barrierless)"
		}
		cfg.logf("ablation bap %s ...", name)
		_, res, _, err := engine.Run(g, algorithms.PageRank(prThreshold("OR")), engine.Config{
			Workers: workers, Mode: mode, Sync: engine.PartitionLock,
			Latency: cfg.latencyModel(), Seed: 1,
		})
		if err != nil {
			panic(err)
		}
		rows = append(rows, Row{Experiment: "ablation-bap", Algorithm: "pagerank",
			Dataset: "OR", Workers: workers, Technique: name,
			Time: res.ComputeTime, Supersteps: res.Supersteps, Executions: res.Executions,
			DataMsgs: res.Net.DataMessages, DataBytes: res.Net.DataBytes,
			CtrlMsgs: res.Net.ControlMessages, Forks: res.ForkSends, Converged: res.Converged})
	}
	return rows
}

// Exclusion reproduces the claim that opens §7: vertex-based locking on
// the partition-aware (Giraph async) engine is far slower than on the
// fiber-based GAS engine — the paper measured up to 44× on OR and
// excluded the combination from Figure 6.
func Exclusion(cfg Config) []Row {
	cfg = cfg.withDefaults()
	gc := newGraphCache(cfg)
	g := gc.undirected("OR")
	workers := cfg.Workers[0]
	var rows []Row

	cfg.logf("exclusion giraph-async vertex lock ...")
	_, res, _, err := engine.Run(g, algorithms.Coloring(), engine.Config{
		Workers: workers, Mode: engine.Async, Sync: engine.VertexLockGiraph,
		Latency: cfg.latencyModel(), Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	rows = append(rows, Row{Experiment: "exclusion", Algorithm: "coloring", Dataset: "OR",
		Workers: workers, Technique: "vertex-lock on Giraph async (excluded in §7)",
		Time: res.ComputeTime, Supersteps: res.Supersteps, Executions: res.Executions,
		DataMsgs: res.Net.DataMessages, DataBytes: res.Net.DataBytes,
		CtrlMsgs: res.Net.ControlMessages, Forks: res.ForkSends, Converged: res.Converged})

	cfg.logf("exclusion graphlab-async vertex lock ...")
	rows = append(rows, cfg.runGAS("exclusion", "coloring", "OR", g, workers,
		func() any { return algorithms.ColoringGAS() }))

	cfg.logf("exclusion partition lock ...")
	rows = append(rows, cfg.runPregel("exclusion", "coloring", "OR", g, workers,
		engine.PartitionLock, func() any { return algorithms.Coloring() }))
	return rows
}
