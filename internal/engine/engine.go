package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"serialgraph/internal/chandy"
	"serialgraph/internal/checkpoint"
	"serialgraph/internal/metrics"
	"serialgraph/internal/msgstore"

	"serialgraph/internal/cluster"
	"serialgraph/internal/graph"
	"serialgraph/internal/history"
	"serialgraph/internal/model"
	"serialgraph/internal/partition"
)

// runner holds the state shared by the master and all workers of one run.
type runner[V, M any] struct {
	g    *graph.Graph
	prog model.Program[V, M]
	cfg  Config
	pm   *partition.Map
	tr   cluster.Transport
	reg  *metrics.Registry

	// flow is the transport's credit-window ledger (DESIGN.md §12): every
	// data send acquires window bytes for its ordered pair and every
	// delivery (or counted drop) releases them. Always armed — with no
	// budget the window is the generous default and senders never block in
	// practice, but the grant/release ledger still runs, so the barrier
	// balance oracle has teeth on every run.
	flow *cluster.Flow

	// workers are the workers this process hosts: all of them in-process,
	// one in a worker process, none on a multi-process coordinator.
	workers []*worker[V, M]

	// failed is closed when the transport fails (a corrupt frame, a lane
	// cut mid-frame); nil for transports that cannot fail.
	failed <-chan struct{}

	// links are a multi-process coordinator's control connections, one per
	// worker process, indexed by worker ID; coord is a worker process's
	// connection to its coordinator. Both nil in-process.
	links []*link
	inbox chan ctrlMsg // the links' frames, as their pumps read them
	coord *ctrlConn

	// aggPrev is the previous superstep's merged aggregates, which a
	// coordinator ships in the next StepStart.
	aggPrev map[string]float64

	// values is the primary copy of every vertex value; each slot is
	// written only by executions of its vertex, which the engine (and the
	// synchronization technique) never runs concurrently with itself.
	values []V
	halted []bool

	// pBoundary is computed for VertexLockGiraph only: per-vertex
	// p-boundary flags (Definition 4), precomputed once instead of walking
	// both adjacency lists per vertex per superstep.
	pBoundary []bool

	// outSlots is computed for Overwrite semantics only: outSlots[u][i] is
	// the in-slot position (biased by one; see msgstore.Entry.Slot) of u in
	// the in-neighbor list of u's i-th out-neighbor. SendToAllOut attaches
	// it to every message so the store never repeats the per-delivery
	// binary search InSlot would do. Rebuilt on topology mutation.
	outSlots [][]uint32

	// initialForks snapshots each lock manager's fresh fork distribution
	// (captured before the first superstep) so a rollback with no
	// checkpoint on disk can reset the Chandy–Misra state along with the
	// vertex state. Indexed like workers; nil when the technique has no
	// managers.
	initialForks []map[chandy.PhilID]map[chandy.PhilID]byte

	// versions tracks per-vertex write versions when history is recorded.
	versions []atomic.Uint32

	// batchPool recycles emitted remote-batch slices: a receiver drops its
	// spent batch here after PutBatch, and every worker's buffer cache
	// restarts its next batch from the pool. Only safe when recycleBatches
	// is set — with fault injection active the transport may duplicate a
	// delivery (at-least-once), and a recycled slice would alias the copy
	// still on the wire.
	batchPool      sync.Pool
	recycleBatches bool
	rec            *history.Recorder

	// replaying is set while confined recovery re-executes supersteps on
	// the crashed workers' partitions. Replay executions are suppressed
	// from the transaction recorder — the original executions were already
	// discarded by the recorder reset, and the replay is reconstruction,
	// not new history.
	replaying atomic.Bool
	// replayDest, valid while replaying is set, marks the workers being
	// recovered. Below the frontier a replaying worker's remote sends are
	// delivered only to other recovering workers: the healthy side already
	// received the originals while the sender was alive, and a replayed
	// duplicate would overwrite a healthy write store's frontier-step slot
	// with an earlier step's value under a newer version.
	replayDest []bool
	// replayFrontier is the superstep the crash was detected at. The dead
	// workers' sends during that superstep were dropped at the transport
	// (a killed sender loses its data traffic), so the frontier replay
	// step must deliver its regenerated sends everywhere; earlier replay
	// steps' sends were originally delivered and stay confined.
	replayFrontier int

	// dirty marks vertices written since the last checkpoint; the next
	// checkpoint can then be a delta generation carrying only those
	// vertices. Allocated only when checkpointing is configured.
	dirty []atomic.Bool

	// lastCheckpoint is the superstep of the newest usable on-disk
	// generation, -1 when none; confined recovery replays from
	// lastCheckpoint+1, and delta generations name it as their base.
	lastCheckpoint int
	// gensSinceFull counts delta generations written since the last full
	// one, bounding the chain a restore must walk.
	gensSinceFull int
	// forceFullCkpt forces the next generation to be full: set whenever
	// the dirty-vertex set stopped describing the diff against the base
	// generation (after any restore or reset).
	forceFullCkpt bool
	// mutatedSince marks topology mutations applied since the last
	// checkpoint. Replay needs the topology the original supersteps ran
	// on, so confined recovery is ineligible until the next checkpoint.
	mutatedSince bool

	// aggAt retains each superstep's merged aggregator map while confined
	// recovery is enabled, so replayed supersteps can be fed the exact
	// aggregate inputs their originals saw. Pruned at checkpoints.
	aggAt map[int]map[string]float64

	executions  atomic.Int64
	concurrency atomic.Int64
	maxConc     atomic.Int64
}

// newTransport builds the run's cluster backend. The TCP backend gets a
// payload codec specialized to the program's message type and the run's
// metrics registry for the wire-phase timers.
func newTransport[V, M any](cfg Config, prog model.Program[V, M], reg *metrics.Registry) (cluster.Transport, error) {
	if cfg.Transport != TransportTCP {
		return cluster.New(cfg.Workers, cfg.Latency), nil
	}
	tcp, err := cluster.NewTCPLoopback(cfg.Workers, cfg.Latency, codecFor(prog))
	if err != nil {
		return nil, err
	}
	tcp.SetMetrics(reg)
	return tcp, nil
}

// Run executes prog over g under cfg and returns the final vertex values.
// When cfg.TrackHistory is set, the returned recorder holds the
// transaction log for serializability checking.
func Run[V, M any](g *graph.Graph, prog model.Program[V, M], cfg Config) ([]V, Result, *history.Recorder, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, Result{}, nil, err
	}
	r, classes := newRunner(g, prog, cfg)
	res := Result{Partitions: r.pm.P, Partition: r.quality(classes)}
	tr, err := newTransport(cfg, prog, r.reg)
	if err != nil {
		return nil, Result{}, nil, err
	}
	defer tr.Close()
	r.host(tr, 0, cfg.Workers, classes)
	startSuperstep := 0
	if cfg.RestoreFrom != "" {
		s0, err := r.restore(cfg.RestoreFrom)
		if err != nil {
			return nil, Result{}, nil, err
		}
		startSuperstep = s0
	}
	start := time.Now()
	if cfg.Mode == BAP {
		r.runBAP(&res)
	} else {
		for _, w := range r.workers {
			go w.loop()
		}
		err := r.supersteps(&res, startSuperstep)
		if err != nil {
			r.shutdownWorkers()
			return nil, Result{}, nil, err
		}
	}
	res.ComputeTime = time.Since(start)
	// Close the transport before the final snapshots: the TCP backend's
	// lane writers keep accounting wire flushes and bytes until Close joins
	// them, so a snapshot taken earlier could miss their last updates and
	// disagree with the registry the caller reads after Run returns.
	r.tr.Close()
	res.Net = r.tr.Stats().Load()
	res.Executions = r.executions.Load()
	res.MaxConcurrency = r.maxConc.Load()
	for _, w := range r.workers {
		if w.mgr != nil {
			st := w.mgr.Stats()
			res.ForkSends += st.ForkSends
			res.TokenSends += st.TokenSends
		}
	}
	res.Metrics = r.reg.Snapshot()
	r.shutdownWorkers()
	return r.values, res, r.rec, nil
}

// newRunner builds the state every process of a run derives alike from
// the graph and the configuration: the partition map, the vertex values
// and halt flags, and the recovery bookkeeping. It returns the vertex
// classification, which the token lists and the quality report read.
func newRunner[V, M any](g *graph.Graph, prog model.Program[V, M], cfg Config) (*runner[V, M], []partition.Class) {
	p := cfg.Workers * cfg.PartitionsPerWorker
	var pm *partition.Map
	if cfg.Partitioner != nil {
		pm = cfg.Partitioner(g, p, cfg.Workers)
	} else {
		pm = partition.NewHash(g, p, cfg.Workers, cfg.Seed)
	}
	r := &runner[V, M]{g: g, prog: prog, cfg: cfg, pm: pm, reg: cfg.Metrics, aggPrev: map[string]float64{}}
	if r.reg == nil {
		r.reg = metrics.New()
	}
	n := g.NumVertices()
	r.values = make([]V, n)
	r.halted = make([]bool, n)
	if prog.Init != nil {
		for v := 0; v < n; v++ {
			r.values[v] = prog.Init(graph.VertexID(v), g)
		}
	}
	if cfg.TrackHistory {
		r.versions = make([]atomic.Uint32, n)
		r.rec = history.NewRecorder()
	}
	r.lastCheckpoint = -1
	if cfg.CheckpointEvery > 0 {
		r.dirty = make([]atomic.Bool, n)
	}
	if cfg.Recovery == RecoverConfined {
		r.aggAt = make(map[int]map[string]float64)
	}
	return r, partition.Classify(g, pm)
}

// quality computes the partition quality report (one allocation-free
// O(V+E) pass over the classification) and records its cut counters. The
// master calls it once per run, outside ComputeTime.
func (r *runner[V, M]) quality(classes []partition.Class) partition.Quality {
	q := partition.ReportClassified(r.g, r.pm, classes)
	r.reg.Add(metrics.CutEdges, int64(q.CutEdges))
	r.reg.Add(metrics.BoundaryVertices, int64(r.g.NumVertices()-q.PInternal))
	return q
}

// host creates this process's workers, IDs lo to hi-1, over tr, with their
// lock managers: every worker of the run in-process, one in a worker
// process.
func (r *runner[V, M]) host(tr cluster.Transport, lo, hi int, classes []partition.Class) {
	cfg := r.cfg
	r.tr = tr
	if f, ok := tr.(interface{ Failed() <-chan struct{} }); ok {
		r.failed = f.Failed()
	}
	if cfg.Sync == VertexLockGiraph {
		r.pBoundary = partition.PBoundaryFlags(r.g, r.pm)
	}
	if r.prog.Semantics == model.Overwrite {
		r.buildOutSlots()
	}
	r.flow = cluster.NewFlow(cfg.Workers, cluster.WindowForBudget(cfg.MsgMemoryBudget, cfg.Workers))
	r.flow.SetMetrics(r.reg)
	if ft, ok := tr.(interface{ SetFlow(*cluster.Flow) }); ok {
		ft.SetFlow(r.flow)
	}
	r.recycleBatches = cfg.Fault == nil
	if cfg.Fault != nil {
		cfg.Fault.Attach(tr)
	}
	var partNeighbors [][]partition.ID
	if cfg.Sync == PartitionLock {
		partNeighbors = r.pm.Neighbors(r.g)
	}
	for id := lo; id < hi; id++ {
		w := newWorker(r, id, classes)
		r.workers = append(r.workers, w)
		switch cfg.Sync {
		case PartitionLock:
			w.initLockManager(partNeighbors)
		case VertexLockGiraph:
			w.initVertexLockManager()
		}
		// Captured unconditionally (it is one map copy per manager at
		// startup): a rollback with no checkpoint on disk — including one
		// forced by the watchdog on an otherwise fault-free run — must be
		// able to reset the Chandy–Misra state along with the vertex state.
		if w.mgr != nil {
			r.initialForks = append(r.initialForks, w.mgr.Export())
		}
	}
}

// supersteps is the master loop, from superstep first until the run
// converges or reaches MaxSupersteps. Each superstep is one exchange with
// every worker: the master dispatches the superstep (in-process workers
// over startCh, worker processes with a StepStart frame carrying the
// merged aggregates), waits for every worker at the barrier, then merges
// the aggregates and decides halting from the workers' unhalted and
// pending counts. Fault detection, recovery, checkpoints and topology
// mutations touch worker memory and run only in-process.
func (r *runner[V, M]) supersteps(res *Result, first int) error {
	cfg := r.cfg
	// restoreNet is the traffic snapshot at the current restore point (run
	// start, then each checkpoint); a rollback charges everything sent
	// since it to Result.WastedMessages.
	var restoreNet cluster.Snapshot
	if r.tr != nil {
		restoreNet = r.tr.Stats().Load()
	}
	// Token techniques execute only the token holder's vertices in any one
	// superstep, so a single superstep's aggregates cover a fraction of the
	// graph and a MasterHalt tolerance test on them would fire spuriously
	// (an idle worker's superstep aggregates to zero). MasterHalt is
	// therefore consulted once per full token rotation, on the aggregates
	// accumulated across the whole window.
	haltWindow := 1
	switch cfg.Sync {
	case TokenSingle:
		haltWindow = cfg.Workers
	case TokenDual:
		haltWindow = cfg.Workers * cfg.PartitionsPerWorker
	}
	windowAgg := make(map[string]float64)
	p := cfg.Workers * cfg.PartitionsPerWorker
	for s := first; s < cfg.MaxSupersteps; s++ {
		if cfg.Fault != nil {
			cfg.Fault.BeginSuperstep(s)
		}
		// Workers already dead when the superstep dispatches executed and
		// delivered nothing mid-superstep, which is what makes their
		// partitions cleanly replayable by confined recovery.
		var deadAtStart []cluster.WorkerID
		if cfg.Recovery == RecoverConfined {
			deadAtStart = r.tr.DeadWorkers()
		}
		stepStart := time.Now()
		execsBefore := r.executions.Load()
		var netBefore cluster.Snapshot
		var phaseBefore metrics.Snapshot
		if cfg.DetailedStats {
			netBefore = r.tr.Stats().Load()
			phaseBefore = r.reg.Snapshot()
		}
		for _, w := range r.workers {
			w.startCh <- s
		}
		if err := r.startLinks(s); err != nil {
			return err
		}
		stalled := r.collectWorkers()
		if stalled {
			r.reg.Add(metrics.WatchdogStalls, 1)
			res.WatchdogStalls++
		}
		if err := r.collectLinks(s); err != nil {
			return err
		}
		if r.tr != nil {
			r.tr.WaitIdle()
			if err := r.transportErr(); err != nil {
				return err
			}
			// With the transport idle every send has been delivered or
			// counted dropped, so every acquired credit must be back: an
			// imbalance here means the flow ledger leaked (the torture
			// harness asserts zero).
			if err := r.flow.CheckBalanced(); err != nil {
				res.CreditImbalances++
			}
		}
		// Superstep metrics are recorded before the failure check: a
		// superstep a rollback later discards was still executed, so the
		// supersteps counter can exceed Result.Supersteps on faulty runs.
		stepWall := time.Since(stepStart)
		r.reg.Add(metrics.Supersteps, 1)
		r.reg.Observe(metrics.HistSuperstepWall, int64(stepWall))
		r.noteBarrier(s, stepStart)

		// Failure detection at the barrier (§6.4): in a real Giraph
		// deployment the master notices a missed heartbeat; in the
		// simulation the transport's aliveness registry plays that role,
		// and only injected faults and the watchdog kill workers. The check
		// runs before any superstep side effects commit (aggregator merge,
		// store swap, checkpoint), so a checkpoint can never capture a
		// superstep a dead worker participated in.
		var dead []cluster.WorkerID
		if cfg.Fault != nil || cfg.WatchdogTimeout > 0 {
			dead = r.tr.DeadWorkers()
		}
		if len(dead) > 0 {
			res.Rollbacks++
			r.reg.Add(metrics.Rollbacks, 1)
			if res.Rollbacks > cfg.MaxRollbacks {
				return fmt.Errorf("engine: workers %v still failing after %d rollbacks (MaxRollbacks)", dead, cfg.MaxRollbacks)
			}
			confined := false
			if r.confinedEligible(dead, deadAtStart, stalled) {
				ok, err := r.confinedRecover(res, s, dead)
				if err != nil {
					return err
				}
				confined = ok
			}
			if !confined {
				res.WastedMessages += r.tr.Stats().Load().DataMessages - restoreNet.DataMessages
				resume, err := r.rollback()
				if err != nil {
					return err
				}
				res.RecomputedSupersteps += s + 1 - resume
				res.RecomputedPartitionSupersteps += (s + 1 - resume) * p
				restoreNet = r.tr.Stats().Load()
				windowAgg = make(map[string]float64) // discarded supersteps replay
				s = resume - 1                       // the loop increment lands on resume
				continue
			}
			// Confined recovery brought the crashed workers' partitions back
			// to the frontier: superstep s has now been (re)computed by every
			// partition, so the superstep commits normally below.
		}
		res.Supersteps = s + 1
		if cfg.DetailedStats {
			net := r.tr.Stats().Load().Sub(netBefore)
			cur := r.reg.Snapshot()
			res.SuperstepStats = append(res.SuperstepStats, SuperstepStat{
				Duration:        stepWall,
				Executions:      r.executions.Load() - execsBefore,
				DataMsgs:        net.DataMessages,
				CtrlMsgs:        net.ControlMessages,
				ComputeNs:       cur.PhaseNs[metrics.PhaseCompute] - phaseBefore.PhaseNs[metrics.PhaseCompute],
				LocalDeliveryNs: cur.PhaseNs[metrics.PhaseLocalDelivery] - phaseBefore.PhaseNs[metrics.PhaseLocalDelivery],
				RemoteFlushNs:   cur.PhaseNs[metrics.PhaseRemoteFlush] - phaseBefore.PhaseNs[metrics.PhaseRemoteFlush],
				BarrierWaitNs:   cur.PhaseNs[metrics.PhaseBarrierWait] - phaseBefore.PhaseNs[metrics.PhaseBarrierWait],
			})
		}

		merged := r.mergeAggregators()
		if r.aggAt != nil {
			r.aggAt[s] = merged
		}
		if err := r.swapStores(); err != nil {
			return err
		}
		unhalted, pending := r.census()
		if err := r.applyMutations(); err != nil {
			return err
		}
		if cfg.CheckpointEvery > 0 && (s+1)%cfg.CheckpointEvery == 0 {
			cpStart := time.Now()
			if err := r.takeCheckpoint(s); err != nil {
				return err
			}
			r.reg.AddPhase(metrics.PhaseCheckpoint, time.Since(cpStart))
			r.reg.Add(metrics.Checkpoints, 1)
			restoreNet = r.tr.Stats().Load()
		}
		if unhalted == 0 && pending == 0 {
			res.Converged = true
			break
		}
		if r.prog.MasterHalt != nil {
			for k, v := range merged {
				windowAgg[k] += v
			}
			if (s+1)%haltWindow == 0 {
				if r.prog.MasterHalt(s, windowAgg) {
					res.Converged = true
					break
				}
				windowAgg = make(map[string]float64)
			}
		}
	}
	return nil
}

// swapStores ends a BSP superstep on this process's workers. Spilled runs
// merge into the write store before the swap: the next superstep's reads
// then see exactly what direct delivery would have put there
// (per-destination arrival order is preserved across runs; see
// msgstore.Spill). Each sink feeds only its own worker's store, so the
// drains run concurrently — serially they would put every worker's merge
// on the barrier's critical path. Callers guarantee that every message of
// the superstep has been delivered.
func (r *runner[V, M]) swapStores() error {
	if r.cfg.Mode != BSP {
		return nil
	}
	drainErrs := make([]error, len(r.workers))
	var drainWG sync.WaitGroup
	for i, w := range r.workers {
		if w.spill == nil {
			w.swapStores()
			continue
		}
		drainWG.Add(1)
		go func() {
			defer drainWG.Done()
			if drainErrs[i] = w.spill.Drain(w.writeStore()); drainErrs[i] == nil {
				w.swapStores()
			}
		}()
	}
	drainWG.Wait()
	if err := errors.Join(drainErrs...); err != nil {
		return fmt.Errorf("engine: spill drain: %w", err)
	}
	return nil
}

// census sums the halting inputs at the barrier: unhalted vertices and
// vertices with pending messages, over in-process workers and the reports
// of worker processes.
func (r *runner[V, M]) census() (unhalted, pending int64) {
	for _, w := range r.workers {
		unhalted += w.unhalted.Load()
		pending += w.pendingMessages()
	}
	for _, l := range r.links {
		unhalted += l.done.Unhalted
		pending += l.done.Pending
	}
	return unhalted, pending
}

// transportErr returns the transport's failure, if it can fail.
func (r *runner[V, M]) transportErr() error {
	if f, ok := r.tr.(interface{ Err() error }); ok {
		return f.Err()
	}
	return nil
}

// buildOutSlots precomputes, for every vertex u and every out-neighbor
// dst, the position of u in dst's in-neighbor list (biased by one; see
// msgstore.Entry.Slot). Messages sent along out-edges — the SendToAllOut
// hot path of PageRank-style algorithms — carry the hint so the store's
// Overwrite delivery never repeats the binary search.
func (r *runner[V, M]) buildOutSlots() {
	n := r.g.NumVertices()
	r.outSlots = make([][]uint32, n)
	for u := 0; u < n; u++ {
		outs := r.g.OutNeighbors(graph.VertexID(u))
		if len(outs) == 0 {
			continue
		}
		row := make([]uint32, len(outs))
		for i, dst := range outs {
			if pos, ok := r.g.InSlot(dst, graph.VertexID(u)); ok {
				row[i] = uint32(pos) + 1
			}
		}
		r.outSlots[u] = row
	}
}

// noteBarrier converts the spread of worker finish times at superstep s's
// barrier into metrics: each worker's barrier-wait is the gap between its
// own finish and the cluster-wide last finish (zero, by construction, for
// the last finisher). A worker process's finish is when its StepDone
// reached the coordinator. Under the token-passing techniques the same spread
// also yields the token accounting — the holder's superstep time counts
// as token_hold_ns and the non-holders' barrier waits as token_idle_ns,
// quantifying §4.2's parallelism sacrifice.
func (r *runner[V, M]) noteBarrier(s int, stepStart time.Time) {
	finish := make([]time.Time, 0, r.cfg.Workers)
	for _, w := range r.workers {
		finish = append(finish, w.finish)
	}
	for _, l := range r.links {
		finish = append(finish, l.finish)
	}
	last := finish[0]
	for _, f := range finish[1:] {
		if f.After(last) {
			last = f
		}
	}
	holder, _ := r.tokenState(s)
	var idle time.Duration
	for i, f := range finish {
		bw := last.Sub(f)
		r.reg.AddPhase(metrics.PhaseBarrierWait, bw)
		if holder >= 0 {
			if i == holder {
				r.reg.Add(metrics.TokenHoldNs, int64(f.Sub(stepStart)))
			} else {
				idle += bw
			}
		}
	}
	if holder >= 0 {
		r.reg.Add(metrics.TokenIdleNs, int64(idle))
	}
}

// applyMutations rebuilds the graph and message stores if any worker
// collected topology mutation requests this superstep. Runs at the barrier
// while the cluster is quiescent. Mutations require SyncNone: the fork
// topology and vertex classifications of the serializable techniques
// assume a static graph (§3's read sets are fixed a priori).
func (r *runner[V, M]) applyMutations() error {
	var adds []graph.Edge
	removes := make(map[edgeKey]struct{})
	for _, w := range r.workers {
		w.mutMu.Lock()
		adds = append(adds, w.mutAdds...)
		for _, k := range w.mutRemoves {
			removes[k] = struct{}{}
		}
		w.mutAdds, w.mutRemoves = nil, nil
		w.mutMu.Unlock()
	}
	if len(adds) == 0 && len(removes) == 0 {
		return nil
	}
	if r.cfg.Sync != SyncNone {
		return fmt.Errorf("engine: topology mutations require SyncNone; %v assumes a static graph", r.cfg.Sync)
	}
	// Replay needs the topology the original supersteps ran on; until the
	// next checkpoint captures a post-mutation restore point, confined
	// recovery is off the table.
	r.mutatedSince = true

	present := make(map[edgeKey]struct{}, r.g.NumEdges())
	var edges []graph.Edge
	for _, e := range r.g.Edges() {
		k := edgeKey{e.Src, e.Dst}
		if _, gone := removes[k]; gone {
			continue
		}
		if _, dup := present[k]; dup {
			continue
		}
		present[k] = struct{}{}
		edges = append(edges, e)
	}
	weighted := r.g.Weighted()
	for _, e := range adds {
		k := edgeKey{e.Src, e.Dst}
		if _, gone := removes[k]; gone {
			continue // removals win within the same superstep
		}
		if _, dup := present[k]; dup {
			continue
		}
		present[k] = struct{}{}
		edges = append(edges, e)
		weighted = weighted || e.Weight != 1
	}
	r.g = graph.NewFromEdges(r.g.NumVertices(), edges, weighted)
	if r.prog.Semantics == model.Overwrite {
		// The in-adjacency lists just changed, so every precomputed slot
		// hint is stale. Rebuilding here is safe: the cluster is quiescent
		// at the barrier (buffers empty, transport idle, no staged
		// messages), so no in-flight entry still carries an old hint.
		r.buildOutSlots()
	}

	// Rebuild the message stores against the new in-adjacency, dropping
	// Overwrite slots whose edge no longer exists.
	for _, w := range r.workers {
		for i, st := range w.stores {
			if st == nil {
				continue
			}
			entries := st.Dump()
			kept := entries[:0]
			for _, e := range entries {
				if e.Src >= 0 && !r.g.HasEdge(e.Src, e.Dst) {
					continue
				}
				kept = append(kept, e)
			}
			ns := msgstore.New[M](r.g, w.owned, r.prog.Semantics, r.prog.Combine)
			ns.Load(kept)
			w.stores[i] = ns
		}
	}
	return nil
}

func (r *runner[V, M]) shutdownWorkers() {
	for _, w := range r.workers {
		close(w.startCh)
		if w.spill != nil {
			w.spill.Close()
		}
	}
}

// fullCheckpointEvery bounds a delta chain: at most this many generations
// (one full plus its deltas) ever need to be read to materialize a restore
// point.
const fullCheckpointEvery = 4

// takeCheckpoint snapshots the run after superstep s completed. The master
// calls it at the barrier, when no vertices execute and the transport is
// idle, so the captured state is consistent (§6.4). When a base generation
// exists and the dirty-vertex set is trustworthy, the generation is a delta
// carrying only the vertices written since the base; stores, halt flags,
// aggregators, and fork state are small relative to values and are always
// captured in full.
func (r *runner[V, M]) takeCheckpoint(s int) error {
	useDelta := r.dirty != nil && r.lastCheckpoint >= 0 && !r.forceFullCkpt &&
		r.gensSinceFull < fullCheckpointEvery-1
	snap := &checkpoint.Snapshot[V, M]{
		Superstep:   s,
		Base:        -1,
		NumVertices: len(r.values),
		Halted:      append([]bool(nil), r.halted...),
		AggPrev:     r.workers[0].aggPrev,
	}
	if useDelta {
		snap.Base = r.lastCheckpoint
		for v := range r.dirty {
			if !r.dirty[v].Load() {
				continue
			}
			snap.DeltaIDs = append(snap.DeltaIDs, int32(v))
			snap.DeltaValues = append(snap.DeltaValues, r.values[v])
			if r.versions != nil {
				snap.DeltaVersions = append(snap.DeltaVersions, r.versions[v].Load())
			}
		}
	} else {
		snap.Values = append([]V(nil), r.values...)
		if r.versions != nil {
			snap.Versions = make([]uint32, len(r.versions))
			for v := range r.versions {
				snap.Versions[v] = r.versions[v].Load()
			}
		}
	}
	for _, w := range r.workers {
		snap.Stores = append(snap.Stores, w.readStore().Dump())
		if w.mgr != nil {
			snap.Forks = append(snap.Forks, w.mgr.Export())
		}
	}
	if err := checkpoint.Save(checkpoint.Path(r.cfg.CheckpointDir, s), snap); err != nil {
		return err
	}
	if useDelta {
		r.gensSinceFull++
	} else {
		r.gensSinceFull = 0
	}
	r.forceFullCkpt = false
	r.lastCheckpoint = s
	r.mutatedSince = false
	for v := range r.dirty {
		r.dirty[v].Store(false)
	}
	// Everything at or before s is durable now: message logs kept for
	// confined replay and retained aggregate snapshots can shed it.
	for _, w := range r.workers {
		if w.log != nil {
			w.log.TruncateThrough(s)
		}
	}
	for k := range r.aggAt {
		if k < s {
			delete(r.aggAt, k)
		}
	}
	return nil
}

// restore loads a checkpoint generation (materializing its delta chain if
// needed) and reinstates it. Callers must present clean workers — either
// freshly constructed (the RestoreFrom path) or reset by rollback. Returns
// the superstep to resume at.
func (r *runner[V, M]) restore(path string) (int, error) {
	snap, err := checkpoint.Materialize[V, M](path)
	if err != nil {
		return 0, err
	}
	return r.restoreSnapshot(snap)
}

// restoreSnapshot reinstates a materialized (full) snapshot: values, halt
// flags, message stores, aggregators, write versions, and fork state.
// Returns the superstep to resume at.
func (r *runner[V, M]) restoreSnapshot(snap *checkpoint.Snapshot[V, M]) (int, error) {
	if len(snap.Values) != len(r.values) {
		return 0, fmt.Errorf("engine: checkpoint has %d vertices, graph has %d", len(snap.Values), len(r.values))
	}
	if len(snap.Stores) != len(r.workers) {
		return 0, fmt.Errorf("engine: checkpoint has %d workers, config has %d", len(snap.Stores), len(r.workers))
	}
	copy(r.values, snap.Values)
	copy(r.halted, snap.Halted)
	if r.versions != nil && len(snap.Versions) == len(r.versions) {
		for v := range r.versions {
			r.versions[v].Store(snap.Versions[v])
		}
	}
	for i, w := range r.workers {
		w.readStore().Load(snap.Stores[i])
		w.aggPrev = snap.AggPrev
		if w.mgr != nil && i < len(snap.Forks) {
			w.mgr.Import(snap.Forks[i])
		}
		w.recomputeUnhalted()
	}
	// The dirty-vertex set no longer describes a diff against any on-disk
	// generation, so the next checkpoint must be full.
	r.lastCheckpoint = snap.Superstep
	r.forceFullCkpt = true
	return snap.Superstep + 1, nil
}

// rollback implements Giraph-style whole-cluster recovery inside one run:
// revive the dead workers, discard all in-memory superstep state, and
// reinstate the latest checkpoint — or the initial state when none has
// been written yet. The master calls it at a barrier with the transport
// idle, so no in-flight traffic can leak across the rollback. Returns the
// superstep to resume at.
func (r *runner[V, M]) rollback() (int, error) {
	for _, wid := range r.tr.DeadWorkers() {
		r.tr.Revive(wid)
	}
	for _, w := range r.workers {
		w.buf.Clear()
		if w.spill != nil {
			w.spill.Discard()
		}
		w.stores[0].Clear()
		if w.stores[1] != nil {
			w.stores[1].Clear()
		}
		w.active.Store(0)
		w.aggMu.Lock()
		w.aggLocal = make(map[string]float64)
		w.aggPrev = make(map[string]float64)
		w.aggMu.Unlock()
		w.mutMu.Lock()
		w.mutAdds, w.mutRemoves = nil, nil
		w.mutMu.Unlock()
		// Clear any watchdog abort so flush protocols block normally again.
		w.ep.ResetAbort()
		if w.mgr != nil {
			w.mgr.ClearAbort()
		}
	}
	// The transport is idle and every store was just cleared, so zeroing
	// the credit windows (and clearing any watchdog abort) restores the
	// flow ledger's ground state for the replay.
	r.flow.Reset()
	resume := 0
	var snap *checkpoint.Snapshot[V, M]
	// Only generations this run has itself written are candidates: a
	// reused checkpoint directory may hold newer files from an earlier
	// process, and restoring one would jump the run forward past
	// supersteps it never executed.
	if r.cfg.CheckpointDir != "" && r.lastCheckpoint >= 0 {
		var skipped int
		var err error
		snap, skipped, err = checkpoint.LoadChainMax[V, M](r.cfg.CheckpointDir, r.lastCheckpoint)
		if err != nil {
			return 0, err
		}
		if skipped > 0 {
			r.reg.Add(metrics.CheckpointGensSkipped, int64(skipped))
		}
	}
	if snap != nil {
		var err error
		resume, err = r.restoreSnapshot(snap)
		if err != nil {
			return 0, err
		}
	} else {
		r.resetToInitial()
		r.lastCheckpoint = -1
		r.forceFullCkpt = true
	}
	for _, w := range r.workers {
		if w.log != nil {
			w.log.Reset(resume)
		}
	}
	for k := range r.aggAt {
		if k >= resume {
			delete(r.aggAt, k)
		}
	}
	r.reg.Add(metrics.PartitionsRestored, int64(r.cfg.Workers*r.cfg.PartitionsPerWorker))
	if r.rec != nil {
		// The discarded executions' transactions go with them: the
		// history that must be serializable is the replay from the
		// restored state.
		r.rec.Reset()
	}
	return resume, nil
}

// resetToInitial rewinds vertex state and fork distribution to superstep
// 0, for rollbacks that happen before any checkpoint exists.
func (r *runner[V, M]) resetToInitial() {
	var zero V
	for v := 0; v < r.g.NumVertices(); v++ {
		if r.prog.Init != nil {
			r.values[v] = r.prog.Init(graph.VertexID(v), r.g)
		} else {
			r.values[v] = zero
		}
		r.halted[v] = false
	}
	forkIdx := 0
	for _, w := range r.workers {
		if w.mgr != nil && forkIdx < len(r.initialForks) {
			w.mgr.Import(r.initialForks[forkIdx])
			forkIdx++
		}
		w.recomputeUnhalted()
	}
}

// confinedEligible decides whether the crash detected at superstep s's
// barrier can be recovered by confined replay (only the crashed workers'
// partitions roll back) instead of a full rollback. Confinement requires:
// the mode is enabled; the watchdog did not declare a stall (a stall means
// in-memory protocol state is suspect everywhere); no topology mutation
// since the last checkpoint (replay needs the topology the originals ran
// on); at least one survivor; every dead worker was already dead when the
// superstep dispatched (a mid-superstep crash leaks partial sends into
// healthy state); and every healthy worker's message log still covers the
// replay window.
func (r *runner[V, M]) confinedEligible(dead, deadAtStart []cluster.WorkerID, stalled bool) bool {
	if r.cfg.Recovery != RecoverConfined || stalled || r.mutatedSince {
		return false
	}
	// BAP has no global superstep barriers, so the replay dispatch protocol
	// (re-running superstep k on the dead workers while the healthy ones
	// idle) does not apply; only full rollback is available there.
	if r.cfg.Mode == BAP {
		return false
	}
	// Under async modes the replay is not an exact reconstruction — logged
	// messages that were dropped on the wire change the re-execution — so
	// the dead workers' regenerated sends are delivered to healthy workers
	// as semantic duplicates, and injected log entries can reach a replayed
	// vertex EARLIER than any fault-free timeline would have delivered
	// them. Overwrite (latest value wins) and Combine (idempotent fold)
	// absorb duplicates and tolerate early supersets — provided Compute
	// never conditions its sends on the *absence* of messages (a
	// superstep- or value-based bootstrap guard is replay-safe; a
	// len(msgs)==0 guard is not). Queue semantics would count a message
	// twice, so those programs get a full rollback instead.
	if r.cfg.Mode != BSP && r.prog.Semantics == model.Queue {
		return false
	}
	if len(dead) >= len(r.workers) {
		return false
	}
	atStart := make(map[cluster.WorkerID]bool, len(deadAtStart))
	for _, wid := range deadAtStart {
		atStart[wid] = true
	}
	deadSet := make(map[int]bool, len(dead))
	for _, wid := range dead {
		if !atStart[wid] {
			return false
		}
		deadSet[int(wid)] = true
	}
	for i, w := range r.workers {
		if deadSet[i] {
			continue
		}
		if w.log == nil || !w.log.Covers(r.lastCheckpoint+1) {
			return false
		}
	}
	return true
}

// confinedRecover rolls back only the dead workers' partitions to the last
// checkpoint (or the initial state when none exists) and replays supersteps
// lastCheckpoint+1..s on them: healthy workers' sends come from their
// message logs, and the dead workers recompute their own executions.
// Healthy partitions keep their in-memory state throughout. Returns
// (false, nil) when the checkpoint chain turned out to be unusable — the
// caller then falls back to a full rollback, which is why nothing is
// mutated before validation passes.
func (r *runner[V, M]) confinedRecover(res *Result, s int, dead []cluster.WorkerID) (bool, error) {
	c := r.lastCheckpoint
	var snap *checkpoint.Snapshot[V, M]
	if c >= 0 {
		var skipped int
		var err error
		// Bounded like rollback's restore: a reused directory's newer
		// foreign generations must not shadow the checkpoint this run took.
		snap, skipped, err = checkpoint.LoadChainMax[V, M](r.cfg.CheckpointDir, c)
		if skipped > 0 {
			r.reg.Add(metrics.CheckpointGensSkipped, int64(skipped))
		}
		if err != nil {
			return false, err
		}
		if snap == nil || snap.Superstep != c ||
			len(snap.Values) != len(r.values) || len(snap.Stores) != len(r.workers) {
			// The generation the run believes in is gone or corrupt; let the
			// full rollback walk the fallback chain instead.
			return false, nil
		}
	}
	deadSet := make(map[int]bool, len(dead))
	for _, wid := range dead {
		deadSet[int(wid)] = true
	}
	for _, wid := range dead {
		r.tr.Revive(wid)
	}

	// For the fork-based techniques, the healthy side of every dead–healthy
	// edge is authoritative: at a quiescent barrier all philosophers are
	// thinking and all held forks are dirty, so mirroring the live export
	// reconstructs a consistent pair. Dead–dead edges come from the
	// checkpoint (or initial distribution), which stores both ends
	// consistently.
	var healthyForks []map[chandy.PhilID]map[chandy.PhilID]byte
	if r.cfg.Sync == PartitionLock || r.cfg.Sync == VertexLockGiraph {
		healthyForks = make([]map[chandy.PhilID]map[chandy.PhilID]byte, len(r.workers))
		for i, w := range r.workers {
			if !deadSet[i] && w.mgr != nil {
				healthyForks[i] = w.mgr.Export()
			}
		}
	}

	deadParts := 0
	for d, w := range r.workers {
		if !deadSet[d] {
			continue
		}
		deadParts += len(w.parts)
		w.buf.Clear()
		if w.spill != nil {
			// Batches staged from the discarded supersteps' arrivals are
			// superseded by the log replay's re-injections.
			w.spill.Discard()
		}
		w.stores[0].Clear()
		if w.stores[1] != nil {
			w.stores[1].Clear()
		}
		w.aggMu.Lock()
		w.aggLocal = make(map[string]float64)
		w.aggMu.Unlock()
		w.mutMu.Lock()
		w.mutAdds, w.mutRemoves = nil, nil
		w.mutMu.Unlock()
		for _, p := range w.parts {
			for _, v := range r.pm.Vertices(p) {
				vi := int(v)
				if snap != nil {
					r.values[vi] = snap.Values[vi]
					r.halted[vi] = snap.Halted[vi]
					if r.versions != nil && len(snap.Versions) == len(r.versions) {
						r.versions[vi].Store(snap.Versions[vi])
					}
				} else {
					if r.prog.Init != nil {
						r.values[vi] = r.prog.Init(v, r.g)
					} else {
						var zero V
						r.values[vi] = zero
					}
					r.halted[vi] = false
				}
			}
		}
		if snap != nil {
			w.readStore().Load(snap.Stores[d])
		}
		if healthyForks != nil && w.mgr != nil {
			var base map[chandy.PhilID]map[chandy.PhilID]byte
			if snap != nil && d < len(snap.Forks) {
				base = snap.Forks[d]
			} else if d < len(r.initialForks) {
				base = r.initialForks[d]
			}
			state := make(map[chandy.PhilID]map[chandy.PhilID]byte, len(base))
			for pid, peers := range base {
				row := make(map[chandy.PhilID]byte, len(peers))
				for qid, st := range peers {
					if qw := r.philOwner(qid); !deadSet[qw] && healthyForks[qw] != nil {
						st = chandy.Mirror(healthyForks[qw][qid][pid])
					}
					row[qid] = st
				}
				state[pid] = row
			}
			w.mgr.Import(state)
		}
		w.recomputeUnhalted()
		if w.log != nil {
			// The dead worker re-logs its sends as it replays.
			w.log.Rewind(c + 1)
		}
	}

	replayed := int64(0)
	r.replayDest = make([]bool, len(r.workers))
	for d := range r.workers {
		r.replayDest[d] = deadSet[d]
	}
	r.replayFrontier = s
	r.replaying.Store(true)
	for k := c + 1; k <= s; k++ {
		prev := r.prevAgg(k-1, snap)
		for d, w := range r.workers {
			if !deadSet[d] {
				continue
			}
			w.aggPrev = prev
			// Logged step-k entries are injected BEFORE replay pass k. For
			// BSP they land in the write store, readable only after the
			// swap — the exact original schedule. For async they become
			// visible at pass k, possibly EARLIER than the original eager
			// delivery managed mid-pass — and an entry logged at step k by
			// an earlier recovery's replay may even descend from this
			// worker's own discarded step-k sends. Early delivery of a
			// superset is the contract async confined replay imposes on
			// programs: Compute may not condition sends on the *absence*
			// of messages (see the eligibility note above) — one-shot
			// reads like greedy coloring need the replicas by pass k, and
			// monotone folds only ever benefit from seeing more sooner.
			for h, hw := range r.workers {
				if deadSet[h] || hw.log == nil {
					continue
				}
				if ents := hw.log.Entries(k, d); len(ents) > 0 {
					w.writeStore().PutBatch(ents)
					replayed += int64(len(ents))
				}
			}
		}
		for d, w := range r.workers {
			if deadSet[d] {
				w.startCh <- k
			}
		}
		for d, w := range r.workers {
			if deadSet[d] {
				<-w.doneCh
			}
		}
		r.tr.WaitIdle()
		if k < s {
			for d, w := range r.workers {
				if !deadSet[d] {
					continue
				}
				if r.cfg.Mode == BSP {
					if w.spill != nil {
						// Replay arrivals staged through the sink merge in
						// before the swap, mirroring the main loop.
						if err := w.spill.Drain(w.writeStore()); err != nil {
							r.replaying.Store(false)
							r.replayDest = nil
							return false, err
						}
					}
					w.swapStores()
				}
				// The originals of these aggregates and mutation intents were
				// already merged/applied at the original barriers; the
				// replay's copies must not count twice. Superstep s's are
				// kept — the caller falls through to the normal barrier
				// processing, which consumes them alongside the healthy
				// workers'.
				w.aggMu.Lock()
				w.aggLocal = make(map[string]float64)
				w.aggMu.Unlock()
				w.mutMu.Lock()
				w.mutAdds, w.mutRemoves = nil, nil
				w.mutMu.Unlock()
			}
		}
	}
	r.replaying.Store(false)
	r.replayDest = nil

	r.reg.Add(metrics.PartitionsRestored, int64(deadParts))
	r.reg.Add(metrics.MessagesReplayed, replayed)
	r.reg.Add(metrics.ConfinedRecoveries, 1)
	res.ConfinedRecoveries++
	res.RecomputedSupersteps += s - c
	res.RecomputedPartitionSupersteps += (s - c) * deadParts
	if r.rec != nil {
		// The crashed workers' discarded executions take their transactions
		// with them; replay executions are suppressed from recording, so the
		// history restarts clean from superstep s+1.
		r.rec.Reset()
	}
	return true, nil
}

// prevAgg returns the merged aggregates of superstep k, which replay feeds
// to superstep k+1 as its aggPrev: the retained ring first, then the
// checkpoint's capture, then empty (k before the first superstep).
func (r *runner[V, M]) prevAgg(k int, snap *checkpoint.Snapshot[V, M]) map[string]float64 {
	if k < 0 {
		return make(map[string]float64)
	}
	if a, ok := r.aggAt[k]; ok {
		return a
	}
	if snap != nil && k == snap.Superstep && snap.AggPrev != nil {
		return snap.AggPrev
	}
	return make(map[string]float64)
}

// philOwner maps a philosopher ID to the worker hosting it: partitions are
// the philosophers under PartitionLock, vertices under VertexLockGiraph.
func (r *runner[V, M]) philOwner(id chandy.PhilID) int {
	if r.cfg.Sync == PartitionLock {
		return r.pm.WorkerOfPartition(partition.ID(id))
	}
	return r.pm.WorkerOf(graph.VertexID(id))
}

// collectWorkers waits for every in-process worker to reach superstep s's
// barrier. With no watchdog configured and a transport that cannot fail
// it blocks indefinitely (the pre-watchdog behavior). With one, a worker
// that has not finished within the deadline is declared stalled: the
// watchdog kills the unfinished workers (their state is suspect —
// typically a lost control message wedged them mid-protocol) and aborts
// every manager and endpoint so blocked fork-acquires and flush-waits
// return and the barrier completes. The caller then runs recovery exactly
// as for a crash. A transport failure aborts the workers the same way, and
// the caller returns the transport's error. Returns whether the watchdog
// fired.
func (r *runner[V, M]) collectWorkers() bool {
	if r.cfg.WatchdogTimeout <= 0 && r.failed == nil {
		for _, w := range r.workers {
			<-w.doneCh
		}
		return false
	}
	done := make(chan int, len(r.workers))
	for i, w := range r.workers {
		go func() {
			<-w.doneCh
			done <- i
		}()
	}
	finished := make([]bool, len(r.workers))
	remaining := len(r.workers)
	var timeout <-chan time.Time
	if r.cfg.WatchdogTimeout > 0 {
		timer := time.NewTimer(r.cfg.WatchdogTimeout)
		defer timer.Stop()
		timeout = timer.C
	}
	failed := r.failed
	fired := false
	for remaining > 0 {
		select {
		case i := <-done:
			finished[i] = true
			remaining--
		case <-failed:
			failed = nil
			r.abort()
		case <-timeout:
			// Workers may have finished concurrently with the timer firing;
			// drain those before judging. Declaring a stall on a run that
			// actually completed would poison healthy state.
			draining := true
			for draining && remaining > 0 {
				select {
				case i := <-done:
					finished[i] = true
					remaining--
				default:
					draining = false
				}
			}
			if remaining == 0 {
				break
			}
			fired = true
			for i := range r.workers {
				if !finished[i] {
					r.tr.Kill(cluster.WorkerID(i))
				}
			}
			r.abort()
		}
	}
	return fired
}

// abort unblocks every blocking primitive of this process's workers: fork
// waits, flush and barrier waits, and senders parked on credit.
func (r *runner[V, M]) abort() {
	for _, w := range r.workers {
		w.ep.Abort()
		if w.mgr != nil {
			w.mgr.Abort()
		}
	}
	r.flow.Abort()
}

// tokenState reports the token positions at superstep s. Under TokenSingle
// the global token rotates among workers every superstep (§4.2). Under
// TokenDual every worker's local token steps through its partitions each
// superstep while the global token stays with one worker for
// PartitionsPerWorker consecutive supersteps (§5.3), so every mixed
// boundary vertex of the holder gets a superstep with both tokens.
// Partition placement is round-robin, so every worker owns exactly
// PartitionsPerWorker partitions and the schedule is uniform.
func (r *runner[V, M]) tokenState(s int) (globalHolder, localIdx int) {
	switch r.cfg.Sync {
	case TokenSingle:
		return s % r.cfg.Workers, -1
	case TokenDual:
		k := r.cfg.PartitionsPerWorker
		return (s / k) % r.cfg.Workers, s % k
	default:
		return -1, -1
	}
}

// mergeAggregators sums the workers' superstep aggregates in worker order
// (so a coordinator's merge equals an in-process one bit for bit) and
// makes the result next superstep's Aggregated view.
func (r *runner[V, M]) mergeAggregators() map[string]float64 {
	merged := make(map[string]float64)
	for _, w := range r.workers {
		for k, v := range w.aggLocal {
			merged[k] += v
		}
		w.aggLocal = make(map[string]float64)
	}
	for _, l := range r.links {
		for i, k := range l.done.AggKeys {
			merged[k] += l.done.AggVals[i]
		}
	}
	for _, w := range r.workers {
		w.aggPrev = merged
	}
	r.aggPrev = merged
	return merged
}

// noteUnitStart/End track how many partitions execute concurrently.
func (r *runner[V, M]) noteUnitStart() {
	c := r.concurrency.Add(1)
	for {
		m := r.maxConc.Load()
		if c <= m || r.maxConc.CompareAndSwap(m, c) {
			break
		}
	}
}

func (r *runner[V, M]) noteUnitEnd() { r.concurrency.Add(-1) }
