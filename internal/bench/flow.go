package bench

import (
	"fmt"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/engine"
	"serialgraph/internal/metrics"
)

// FlowOverhead measures the bounded-memory message plane on the largest
// dataset analog (UK): BSP PageRank run three ways — unbounded, with a
// huge budget that arms the spill tier without ever flushing (the probe
// that observes peak buffered bytes), and with a budget of one eighth of
// the observed peak, which forces the spill tier to cut runs on most
// supersteps. Bounded runs are bitwise-identical to the unbounded one by
// contract — a divergence or a peak above the budget panics rather than
// becoming a row, because it is an invariant violation, not a
// measurement. The rows' comparison axes are wall time (the acceptance
// bar is ≤10% regression for the 1/8-budget run) and the flow counters:
// bytes_spilled, credit_wait_ns, and the buffered_bytes histogram whose
// Max is the observed peak. Each configuration is run flowReps times and
// the fastest repetition is kept — wall time on a shared host is
// min-stable, not mean-stable, and the runs are deterministic so every
// repetition produces identical results and counters.
func FlowOverhead(cfg Config) []Row {
	cfg = cfg.withDefaults()
	gc := newGraphCache(cfg)
	const ds = "UK"
	g := gc.directed(ds)
	workers := cfg.Workers[0]
	eps := prThreshold(ds)

	const flowReps = 3
	run := func(label string, budget int64) ([]float64, Row) {
		ecfg := engine.Config{
			Workers: workers, Mode: engine.BSP, Sync: engine.SyncNone,
			Latency: cfg.latencyModel(), Seed: 1, DetailedStats: cfg.Trace,
			MsgMemoryBudget: budget,
		}
		var bestPR []float64
		var best Row
		for rep := 0; rep < flowReps; rep++ {
			cfg.logf("flow %s (budget=%d bytes) rep %d/%d ...", label, budget, rep+1, flowReps)
			pr, res, _, err := engine.Run(g, algorithms.PageRankAggregated(eps), ecfg)
			if err != nil {
				panic(err)
			}
			if !res.Converged {
				panic(fmt.Sprintf("bench: flow %s did not converge", label))
			}
			m := res.Metrics
			row := Row{
				Experiment: "flow", Algorithm: "pagerank", Dataset: ds, Workers: workers,
				Technique: label, Time: res.ComputeTime, Supersteps: res.Supersteps,
				Executions: res.Executions, DataMsgs: res.Net.DataMessages, DataBytes: res.Net.DataBytes,
				CtrlMsgs: res.Net.ControlMessages, Converged: res.Converged,
				Metrics: &m, Trace: res.SuperstepStats,
			}
			if rep == 0 || row.Time < best.Time {
				bestPR, best = pr, row
			}
		}
		return bestPR, best
	}

	base, baseRow := run("unbounded", 0)
	probe, probeRow := run("probe", 1<<40)
	// The histogram records each worker's buffered bytes, so the observed
	// cluster-wide peak is per-worker peak × workers (every worker buffers
	// its superstep's inbound traffic simultaneously); the budget divides
	// back down to peak/8 per worker.
	peak := probeRow.Metrics.Hists[metrics.HistBufferedBytes].Max
	if peak <= 0 {
		panic("bench: flow probe run observed no buffered bytes")
	}
	budget := peak * int64(workers) / 8
	tight, tightRow := run("budget-peak/8", budget)

	for v := range base {
		if base[v] != probe[v] || base[v] != tight[v] {
			panic(fmt.Sprintf("bench: flow budgeted PageRank diverged from unbounded at vertex %d", v))
		}
	}
	if got := tightRow.Metrics.Hists[metrics.HistBufferedBytes].Max; got > budget/int64(workers) {
		panic(fmt.Sprintf("bench: flow peak buffered bytes %d exceeded per-worker budget %d", got, budget/int64(workers)))
	}
	if tightRow.Metrics.Counters[metrics.BytesSpilled] == 0 {
		panic("bench: flow budget-peak/8 run never spilled")
	}
	return []Row{baseRow, probeRow, tightRow}
}
