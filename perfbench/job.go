package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"syscall"
	"time"

	"serialgraph"
	"serialgraph/internal/algorithms"
	"serialgraph/internal/engine"
	"serialgraph/internal/gas"
	"serialgraph/internal/generate"
	"serialgraph/internal/graph"
	"serialgraph/internal/history"
	"serialgraph/internal/metrics"
	"serialgraph/internal/partition"
)

// A job is one end-to-end execution of a workload: generate the graph,
// build its CSR (and symmetrize it where the algorithm needs that), run the
// job through the engine's public entry point, and check the answer. Each
// job runs in a process of its own, so its peak RSS is its own.

type jobOpts struct {
	w       *workload
	cluster clusterSpec
	seed    int64
	scale   float64
	traced  bool
	refPath string // bitwise reference values for the bitwise-bsp check
	corrupt bool   // perturb the answer before the check (self-test only)
}

type jobResult struct {
	Err       string             `json:"err,omitempty"`
	SetupS    float64            `json:"setup_s"`
	RunS      float64            `json:"run_s"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	NetMsgs   int64              `json:"net_msgs"`
	NetBytes  int64              `json:"net_bytes"`
	Residual  float64            `json:"residual,omitempty"`
	Layer     map[string]float64 `json:"layer,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
}

// buildGraph generates the workload's catalog analog from seed. The
// program under test only ever sees the generated graph.
func buildGraph(w *workload, seed int64, scale float64) (*graph.Graph, error) {
	d, err := generate.ByName(w.Dataset)
	if err != nil {
		return nil, err
	}
	d.Seed = seed
	return d.Build(scale), nil
}

// runOutput is what one engine run returns; exactly one of floats and ints
// is set, by the algorithm's value type.
type runOutput struct {
	floats []float64
	ints   []int32
	res    engine.Result
	rec    *history.Recorder
}

func engineConfig(w *workload, c clusterSpec, seed int64) (engine.Config, error) {
	cfg := engine.Config{
		Workers:             c.Workers,
		PartitionsPerWorker: c.PartitionsPerWorker,
		ThreadsPerWorker:    c.ThreadsPerWorker,
		Latency:             c.latency(),
		Seed:                uint64(seed),
		MsgMemoryBudget:     w.Budget,
	}
	switch w.Mode {
	case "async":
		cfg.Mode = engine.Async
	case "bsp":
		cfg.Mode = engine.BSP
	default:
		return cfg, fmt.Errorf("workload %s: unknown mode %q", w.Name, w.Mode)
	}
	switch w.Sync {
	case "none":
		cfg.Sync = engine.SyncNone
	case "token-dual":
		cfg.Sync = engine.TokenDual
	case "partition-lock":
		cfg.Sync = engine.PartitionLock
	default:
		return cfg, fmt.Errorf("workload %s: sync %q is not a Pregel technique", w.Name, w.Sync)
	}
	switch w.Transport {
	case "inproc":
		cfg.Transport = engine.TransportInProc
	case "tcp":
		cfg.Transport = engine.TransportTCP
	default:
		return cfg, fmt.Errorf("workload %s: unknown transport %q", w.Name, w.Transport)
	}
	return cfg, nil
}

// runWorkload runs the job through engine.Run or gas.Run. partitioner, when
// non-nil, replaces the engine's default hash placement with an identical
// one the benchmark can time.
func runWorkload(w *workload, c clusterSpec, g *graph.Graph, seed int64, track bool,
	partitioner func(*graph.Graph, int, int) *partition.Map) (runOutput, error) {
	var out runOutput
	var err error
	if w.Engine == "gas" {
		if w.Algorithm != "sssp" || w.Sync != "vertex-lock" {
			return out, fmt.Errorf("workload %s: the GAS engine runs sssp under vertex-lock only", w.Name)
		}
		cfg := gas.Config{Workers: c.Workers, Serializable: true, Latency: c.latency(),
			Seed: uint64(seed), TrackHistory: track}
		out.floats, out.res, out.rec, err = gas.Run(g, algorithms.SSSPGAS(0), cfg)
		return out, err
	}
	cfg, err := engineConfig(w, c, seed)
	if err != nil {
		return out, err
	}
	cfg.TrackHistory = track
	cfg.Partitioner = partitioner
	switch w.Algorithm {
	case "pagerank":
		out.floats, out.res, out.rec, err = engine.Run(g, algorithms.PageRank(w.Eps), cfg)
	case "coloring":
		out.ints, out.res, out.rec, err = engine.Run(g, algorithms.Coloring(), cfg)
	case "sssp":
		out.floats, out.res, out.rec, err = engine.Run(g, algorithms.SSSP(0), cfg)
	default:
		err = fmt.Errorf("workload %s: unknown algorithm %q", w.Name, w.Algorithm)
	}
	return out, err
}

// bitwiseReference returns the workload's answer from one unbounded
// in-process run of the same deterministic (BSP) job: the answer a bounded
// or TCP run must reproduce bit for bit.
func bitwiseReference(w *workload, c clusterSpec, g *graph.Graph, seed int64) ([]float64, error) {
	ref := *w
	ref.Transport, ref.Budget = "inproc", 0
	out, err := runWorkload(&ref, c, g, seed, false, nil)
	if err != nil {
		return nil, err
	}
	if !out.res.Converged {
		return nil, errors.New("reference run did not converge")
	}
	return out.floats, nil
}

func writeFloats(path string, v []float64) error {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return os.WriteFile(path, b, 0o644)
}

func readFloats(path string) ([]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	v := make([]float64, len(b)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v, nil
}

// checkOutput verifies the answer. It returns the PageRank residual for the
// residual check, zero otherwise.
func checkOutput(o jobOpts, g *graph.Graph, out runOutput) (float64, error) {
	if !out.res.Converged {
		return 0, errors.New("job did not converge")
	}
	switch o.w.Check {
	case "residual":
		r := algorithms.PageRankResidual(g, out.floats)
		if !(r <= o.w.MaxResidual) {
			return r, fmt.Errorf("PageRank residual %g exceeds the bound %g", r, o.w.MaxResidual)
		}
		return r, nil
	case "bitwise-bsp":
		ref, err := readFloats(o.refPath)
		if err != nil {
			return 0, fmt.Errorf("bitwise reference: %w", err)
		}
		if len(ref) != len(out.floats) {
			return 0, fmt.Errorf("%d values, reference has %d", len(out.floats), len(ref))
		}
		for v := range ref {
			if math.Float64bits(ref[v]) != math.Float64bits(out.floats[v]) {
				return 0, fmt.Errorf("vertex %d: %v differs from the in-process BSP reference %v", v, out.floats[v], ref[v])
			}
		}
		return 0, nil
	case "coloring":
		return 0, algorithms.ValidateColoring(g, out.ints)
	case "sssp":
		want := algorithms.ShortestPaths(g, 0)
		for v := range want {
			if out.floats[v] != want[v] {
				return 0, fmt.Errorf("vertex %d: distance %v, want %v", v, out.floats[v], want[v])
			}
		}
		return 0, nil
	}
	return 0, fmt.Errorf("workload %s: unknown check %q", o.w.Name, o.w.Check)
}

// corruptOutput perturbs one value so that every check must reject it.
func corruptOutput(g *graph.Graph, out *runOutput) {
	if out.floats != nil {
		out.floats[0] += 1e6
		return
	}
	nb := g.OutNeighbors(0)
	if len(nb) > 0 {
		out.ints[0] = out.ints[nb[0]]
	}
}

// solveSerial is the single-threaded reference solve of the job's problem:
// the speed-up denominator for run_s.
func solveSerial(w *workload, g *graph.Graph) {
	switch w.Algorithm {
	case "pagerank":
		algorithms.PageRankReference(g, w.SerialIters)
	case "sssp":
		algorithms.ShortestPaths(g, 0)
	case "coloring":
		greedyColoring(g)
	}
}

// greedyColoring colors vertices in ID order with the smallest color no
// neighbor holds: Algorithm 1 executed serially.
func greedyColoring(g *graph.Graph) []int32 {
	n := g.NumVertices()
	colors := make([]int32, n)
	for v := range colors {
		colors[v] = algorithms.NoColor
	}
	var used []bool
	for v := 0; v < n; v++ {
		used = used[:0]
		for _, u := range g.OutNeighbors(graph.VertexID(v)) {
			if c := colors[u]; c != algorithms.NoColor {
				for int(c) >= len(used) {
					used = append(used, false)
				}
				used[c] = true
			}
		}
		c := int32(0)
		for int(c) < len(used) && used[c] {
			c++
		}
		colors[v] = c
	}
	return colors
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// runJob executes one job. Errors, non-convergence and failed checks are
// reported in Err; timings are filled in as far as the job got.
func runJob(o jobOpts) (jr jobResult) {
	w := o.w
	tr := newTracer()
	job := tr.begin("job", -1)
	defer func() {
		tr.end(job)
		if o.traced {
			jr.Spans = tr.spans
		}
	}()

	build := tr.begin("graph.build", job)
	g, err := buildGraph(w, o.seed, o.scale)
	tr.end(build)
	if err != nil {
		jr.Err = err.Error()
		return jr
	}
	jr.SetupS = tr.seconds(build)
	symmetrizeS := 0.0
	if w.Algorithm == "coloring" {
		sym := tr.begin("graph.symmetrize", job)
		g = serialgraph.Undirected(g)
		tr.end(sym)
		symmetrizeS = tr.seconds(sym)
		jr.SetupS += symmetrizeS
	}

	run := tr.begin("run", job)
	var partitioner func(*graph.Graph, int, int) *partition.Map
	if o.traced && w.Engine == "pregel" {
		partitioner = func(g *graph.Graph, p, nw int) *partition.Map {
			s := tr.begin("partition", run)
			defer tr.end(s)
			return partition.NewHash(g, p, nw, uint64(o.seed))
		}
	}
	out, err := runWorkload(w, o.cluster, g, o.seed, o.traced && len(w.History) > 0, partitioner)
	tr.end(run)
	if err != nil {
		jr.Err = err.Error()
		return jr
	}
	jr.RunS = tr.seconds(run)
	jr.PeakRSSMB = peakRSSMB()
	net := out.res.Net
	jr.NetMsgs = net.DataMessages + net.ControlMessages
	if w.Transport == "tcp" {
		jr.NetBytes = net.WireBytesSent
	} else {
		jr.NetBytes = net.DataBytes + net.ControlBytes
	}

	if o.traced {
		jr.Layer = resultLayers(w, g, out.res, jr.RunS)
		jr.Layer["graph.build_s"] = tr.seconds(build)
		jr.Layer["graph.symmetrize_s"] = symmetrizeS
	}

	if o.corrupt {
		corruptOutput(g, &out)
	}
	chk := tr.begin("check", job)
	jr.Residual, err = checkOutput(o, g, out)
	if err == nil && out.rec != nil {
		h := tr.begin("check.history", chk)
		err = checkHistory(w, g, out.rec.Txns())
		tr.end(h)
	}
	tr.end(chk)
	if err != nil {
		jr.Err = err.Error()
	}
	if !o.traced {
		return jr
	}
	serial := tr.begin("serial", job)
	solveSerial(w, g)
	tr.end(serial)
	jr.Layer["check.s"] = tr.seconds(chk)
	jr.Layer["check.serial_s"] = tr.seconds(serial)
	return jr
}

// checkHistory runs the workload's serializability checks over the traced
// job's transaction history.
func checkHistory(w *workload, g *graph.Graph, txns []history.Txn) error {
	for _, kind := range w.History {
		var v []history.Violation
		switch kind {
		case "C1":
			v = history.CheckC1(txns)
		case "C2":
			v = history.CheckC2(txns, g)
		case "1SR":
			v = history.CheckSerializable(txns)
		default:
			return fmt.Errorf("workload %s: unknown history check %q", w.Name, kind)
		}
		if len(v) > 0 {
			return fmt.Errorf("%d %s violations in %d transactions, first: %v", len(v), kind, len(txns), v[0])
		}
	}
	return nil
}

// resultLayers reads the per-layer metrics a job's Result and metrics
// snapshot carry. Metrics a workload's engine does not produce read 0.
func resultLayers(w *workload, g *graph.Graph, res engine.Result, runS float64) map[string]float64 {
	m := res.Metrics
	l := map[string]float64{
		"partition.boundary_frac":     res.Partition.BoundaryFraction,
		"partition.cut_frac":          res.Partition.CutFraction,
		"cluster.data_batches":        float64(res.Net.DataMessages),
		"cluster.ctrl_msgs":           float64(res.Net.ControlMessages),
		"cluster.batch_entries_mean":  m.Hist(metrics.HistBatchEntries).Mean(),
		"cluster.credit_wait_ns":      float64(m.Get(metrics.CreditWaitNs)),
		"wire.encode_ns":              float64(m.PhaseNs[metrics.PhaseWireEncode]),
		"wire.decode_ns":              float64(m.PhaseNs[metrics.PhaseWireDecode]),
		"msgstore.bytes_spilled":      float64(m.Get(metrics.BytesSpilled)),
		"msgstore.buffered_bytes_max": float64(m.Hist(metrics.HistBufferedBytes).Max),
		"chandy.lock_acquires":        float64(m.Get(metrics.LockAcquires)),
		"chandy.fork_grants":          float64(m.Get(metrics.ForkGrants)),
		"chandy.lock_wait_ns":         float64(m.Get(metrics.LockWaitNs)),
		"engine.init_s":               runS - res.ComputeTime.Seconds(),
		"engine.supersteps":           float64(res.Supersteps),
		"engine.compute_ns":           float64(m.PhaseNs[metrics.PhaseCompute]),
		"engine.barrier_wait_ns":      float64(m.PhaseNs[metrics.PhaseBarrierWait]),
		"engine.remote_flush_ns":      float64(m.PhaseNs[metrics.PhaseRemoteFlush]),
		"engine.local_delivery_ns":    float64(m.PhaseNs[metrics.PhaseLocalDelivery]),
		"engine.token_handoffs":       float64(m.Get(metrics.FlushMarkers)),
		"engine.token_hold_ns":        float64(m.Get(metrics.TokenHoldNs)),
		"engine.token_idle_ns":        float64(m.Get(metrics.TokenIdleNs)),
	}
	l["chandy.forks_per_acquire"] = ratio(l["chandy.fork_grants"], l["chandy.lock_acquires"])
	l["engine.execs_per_vertex"] = ratio(float64(res.Executions), float64(g.NumVertices()))
	// The GAS engine keeps no metrics registry; its Result carries its
	// counts directly.
	for _, k := range []string{"gas.executions", "gas.fork_sends", "gas.ctrl_msgs"} {
		l[k] = 0
	}
	if w.Engine == "gas" {
		l["gas.executions"] = float64(res.Executions)
		l["gas.fork_sends"] = float64(res.ForkSends)
		l["gas.ctrl_msgs"] = float64(res.Net.ControlMessages)
	}
	return l
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// span is one timed call the benchmark makes. Start and End are seconds
// since the job began; Parent indexes the enclosing span (-1 for the root).
type span struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

// tracer records spans around the benchmark's own calls into the program.
// It is used from one goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.t0).Seconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = time.Since(t.t0).Seconds() }

func (t *tracer) seconds(i int) float64 { return t.spans[i].End - t.spans[i].Start }

// selfTimes returns each span's duration minus the time its children
// cover (children of one span never overlap: the benchmark's calls are sequential).
func selfTimes(spans []span) []float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}
