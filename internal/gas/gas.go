// Package gas implements a GraphLab-async-style engine (§2.3): pull-based
// gather/apply/scatter vertex programs, no supersteps, lightweight fibers
// (goroutines) paired with individual vertices (§5.1), and vertex-based
// distributed locking via Chandy–Misra for serializability (§4.3). This is
// the baseline the paper compares partition-based locking against: the
// vertex-granularity forks maximize parallelism but generate per-vertex
// control traffic and allow almost no message batching.
package gas

import (
	"sync"
	"sync/atomic"
	"time"

	"serialgraph/internal/chandy"
	"serialgraph/internal/cluster"
	"serialgraph/internal/engine"
	"serialgraph/internal/graph"
	"serialgraph/internal/history"
	"serialgraph/internal/model"
	"serialgraph/internal/partition"
)

// Config parameterizes a GAS run.
type Config struct {
	// Workers is the simulated cluster size. Default 1.
	Workers int
	// FibersPerWorker is how many goroutine fibers execute vertices
	// concurrently per worker; GraphLab over-threads to mask communication
	// latency (§5.1). Default 64.
	FibersPerWorker int
	// Serializable enables vertex-based distributed locking. Off, the
	// engine is GraphLab async without serializability: GAS phases of
	// neighboring vertices may interleave (§2.3).
	Serializable bool
	// Latency is the simulated network model.
	Latency cluster.LatencyModel
	// BufferCap bounds the replica-update batch size. Default 512; actual
	// batches stay tiny because every fork handoff forces a flush, which
	// is precisely the paper's criticism of vertex-based locking (§5.2).
	BufferCap int
	// Seed feeds hash placement of vertices onto workers.
	Seed uint64
	// Partitioner names the placement partitioner ("" or "hash", "range",
	// "ldg", "fennel"; see partition.Kinds). GAS maps one partition per
	// worker (§5.1), so the kind only controls which worker owns each
	// vertex — locality-aware kinds shrink replica-update traffic.
	Partitioner string
	// MaxExecutions aborts runs that do not quiesce (non-serializable
	// coloring can livelock, §2.3). Default 200 × |V|.
	MaxExecutions int64
	// TrackHistory attaches a transaction recorder.
	TrackHistory bool
}

func (c Config) withDefaults(n int) Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.FibersPerWorker <= 0 {
		c.FibersPerWorker = 64
	}
	if c.BufferCap <= 0 {
		c.BufferCap = 512
	}
	if c.MaxExecutions <= 0 {
		c.MaxExecutions = 200 * int64(n)
	}
	return c
}

// replUpdate carries one vertex's new value to a remote replica, plus the
// out-neighbors on that worker to activate (scatter).
type replUpdate[V any] struct {
	Src      graph.VertexID
	Val      V
	Ver      uint32
	Activate []graph.VertexID
}

// vertexState tracks scheduling so a vertex never executes concurrently
// with itself.
type vertexState uint8

const (
	idle vertexState = iota
	queued
	running
	runningRerun // re-activated while running; requeue on completion
)

type gworker[V comparable, M any] struct {
	r  *grunner[V, M]
	id int

	ep  *cluster.Endpoint
	mgr *chandy.Manager

	// replica holds the last delivered value of every remote vertex; local
	// vertices read the primary directly.
	replica    []V
	replicaVer []uint32
	replicaMu  sync.RWMutex

	schedMu sync.Mutex
	cond    *sync.Cond
	queue   []graph.VertexID
	state   []vertexState // indexed by global vertex ID; owned vertices only
	closed  bool

	busy atomic.Int64

	bufMu   sync.Mutex
	buffers [][]replUpdate[V] // per destination worker
}

type grunner[V comparable, M any] struct {
	g    *graph.Graph
	prog model.GASProgram[V, M]
	cfg  Config
	pm   *partition.Map
	tr   cluster.Transport

	workers []*gworker[V, M]
	// values is the primary copy of every vertex. Reads and writes go
	// through the stripe locks: without serializability, a local gather
	// may race an owner's apply (deliberately stale data, §2.3), and the
	// stripes keep that well-defined.
	values    []V
	valStripe [64]sync.Mutex

	versions []atomic.Uint32
	rec      *history.Recorder

	executions atomic.Int64
	scheduled  atomic.Int64
	maxConc    atomic.Int64
	conc       atomic.Int64
}

// Run executes the GAS program until global quiescence (no active vertices,
// no in-flight messages) and returns the final values.
func Run[V comparable, M any](g *graph.Graph, prog model.GASProgram[V, M], cfg Config) ([]V, engine.Result, *history.Recorder, error) {
	cfg = cfg.withDefaults(g.NumVertices())
	r := &grunner[V, M]{g: g, prog: prog, cfg: cfg}
	n := g.NumVertices()
	// One "partition" per worker: GraphLab async is not partition aware
	// (§5.1); the map only records vertex placement.
	pm, err := partition.New(cfg.Partitioner, g, cfg.Workers, cfg.Workers, cfg.Seed)
	if err != nil {
		return nil, engine.Result{}, nil, err
	}
	r.pm = pm
	quality := partition.Report(g, r.pm)

	r.values = make([]V, n)
	for v := 0; v < n; v++ {
		r.values[v] = prog.Init(graph.VertexID(v), g)
	}
	if cfg.TrackHistory {
		r.versions = make([]atomic.Uint32, n)
		r.rec = history.NewRecorder()
	}

	r.tr = cluster.New(cfg.Workers, cfg.Latency)
	defer r.tr.Close()

	for w := 0; w < cfg.Workers; w++ {
		r.workers = append(r.workers, newGWorker(r, w))
	}

	// Initially every vertex is active (§7.2.4 and GraphLab's semantics).
	for v := 0; v < n; v++ {
		u := graph.VertexID(v)
		r.workers[r.pm.WorkerOf(u)].schedule(u)
	}

	var wg sync.WaitGroup
	for _, w := range r.workers {
		for f := 0; f < cfg.FibersPerWorker; f++ {
			wg.Add(1)
			go func(w *gworker[V, M]) {
				defer wg.Done()
				w.fiberLoop()
			}(w)
		}
	}

	start := time.Now()
	res := engine.Result{Partitions: cfg.Workers, Partition: quality}
	res.Converged = r.awaitQuiescence()
	res.ComputeTime = time.Since(start)

	for _, w := range r.workers {
		w.close()
	}
	wg.Wait()

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
	return r.values, res, r.rec, nil
}

func (r *grunner[V, M]) loadValue(u graph.VertexID) V {
	lk := &r.valStripe[u%64]
	lk.Lock()
	v := r.values[u]
	lk.Unlock()
	return v
}

func (r *grunner[V, M]) storeValue(u graph.VertexID, v V) {
	lk := &r.valStripe[u%64]
	lk.Lock()
	r.values[u] = v
	lk.Unlock()
}

// awaitQuiescence polls until no vertex is queued or running and the
// network is idle, confirmed by two consecutive observations with an
// unchanged execution counter. Returns false if MaxExecutions was exceeded.
func (r *grunner[V, M]) awaitQuiescence() bool {
	var lastExec, lastSched int64 = -1, -1
	for {
		if r.executions.Load() > r.cfg.MaxExecutions {
			return false
		}
		idleNow := r.tr.InFlight() == 0
		if idleNow {
			for _, w := range r.workers {
				if !w.idle() {
					idleNow = false
					// If the worker is blocked only on buffered updates,
					// release them.
					if w.busy.Load() == 0 {
						w.flushAll()
					}
					break
				}
			}
		}
		if idleNow {
			e, s := r.executions.Load(), r.scheduled.Load()
			if e == lastExec && s == lastSched {
				return true
			}
			lastExec, lastSched = e, s
		} else {
			lastExec, lastSched = -1, -1
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func newGWorker[V comparable, M any](r *grunner[V, M], id int) *gworker[V, M] {
	n := r.g.NumVertices()
	w := &gworker[V, M]{
		r: r, id: id,
		replica:    make([]V, n),
		replicaVer: make([]uint32, n),
		state:      make([]vertexState, n),
		buffers:    make([][]replUpdate[V], r.cfg.Workers),
	}
	copy(w.replica, r.values) // replicas start at the common Init values
	w.cond = sync.NewCond(&w.schedMu)
	w.ep = cluster.NewEndpoint(r.tr, cluster.WorkerID(id), w.onData, w.onCtrl)
	if r.cfg.Serializable {
		ownerOf := func(p chandy.PhilID) int { return r.pm.WorkerOf(graph.VertexID(p)) }
		preHandoff := func(toWorker int) { w.flushTo(toWorker) }
		w.mgr = chandy.NewManager(id, ownerOf, nil, preHandoff)
		w.mgr.SetFrameSender(func(toWorker int, frame []chandy.Ctrl) {
			w.ep.SendCtrl(cluster.WorkerID(toWorker), frame, cluster.CtrlFrameBytes(len(frame)))
		})
		for v := 0; v < n; v++ {
			u := graph.VertexID(v)
			if r.pm.WorkerOf(u) != id {
				continue
			}
			var nbs []chandy.PhilID
			r.g.Neighbors(u, func(x graph.VertexID) { nbs = append(nbs, chandy.PhilID(x)) })
			w.mgr.AddPhil(chandy.PhilID(u), nbs)
		}
	}
	return w
}

// schedule marks u runnable on its owner worker (u must be owned by w).
func (w *gworker[V, M]) schedule(u graph.VertexID) {
	w.schedMu.Lock()
	switch w.state[u] {
	case idle:
		w.state[u] = queued
		w.queue = append(w.queue, u)
		w.r.scheduled.Add(1)
		w.cond.Signal()
	case running:
		w.state[u] = runningRerun
		w.r.scheduled.Add(1)
	}
	w.schedMu.Unlock()
}

func (w *gworker[V, M]) idle() bool {
	if w.busy.Load() != 0 {
		return false
	}
	w.schedMu.Lock()
	empty := len(w.queue) == 0
	w.schedMu.Unlock()
	if !empty {
		return false
	}
	w.bufMu.Lock()
	defer w.bufMu.Unlock()
	for _, b := range w.buffers {
		if len(b) > 0 {
			return false
		}
	}
	return true
}

// flushAll drains every buffered replica-update batch; the master calls it
// when the cluster has otherwise gone quiet so buffered activations cannot
// strand.
func (w *gworker[V, M]) flushAll() {
	for dest := range w.buffers {
		w.flushTo(dest)
	}
}

func (w *gworker[V, M]) close() {
	w.schedMu.Lock()
	w.closed = true
	w.cond.Broadcast()
	w.schedMu.Unlock()
}

// fiberLoop is one fiber: pop an active vertex, lock, execute GAS, unlock.
func (w *gworker[V, M]) fiberLoop() {
	for {
		w.schedMu.Lock()
		for len(w.queue) == 0 && !w.closed {
			w.cond.Wait()
		}
		if w.closed {
			w.schedMu.Unlock()
			return
		}
		u := w.queue[0]
		w.queue = w.queue[1:]
		w.state[u] = running
		w.busy.Add(1)
		w.schedMu.Unlock()

		w.executeVertex(u)

		w.schedMu.Lock()
		rerun := w.state[u] == runningRerun
		w.state[u] = idle
		w.busy.Add(-1)
		w.schedMu.Unlock()
		if rerun {
			w.schedule(u)
		}
	}
}

// executeVertex runs one gather/apply/scatter transaction on u.
func (w *gworker[V, M]) executeVertex(u graph.VertexID) {
	r := w.r
	if w.mgr != nil {
		if !w.mgr.Acquire(chandy.PhilID(u)) {
			return // manager aborted; the GAS engine has no recovery path
		}
		defer w.mgr.Release(chandy.PhilID(u))
	}
	r.executions.Add(1)
	c := r.conc.Add(1)
	for {
		m := r.maxConc.Load()
		if c <= m || r.maxConc.CompareAndSwap(m, c) {
			break
		}
	}
	defer r.conc.Add(-1)

	var txn history.Txn
	if r.rec != nil {
		txn.Vertex = u
		txn.Start = r.rec.Tick()
		txn.ReadVer = r.versions[u].Load()
	}

	// Gather: pull each in-neighbor's current value (local primaries
	// directly, remote from the replica table).
	var acc M
	hasAcc := false
	in := r.g.InNeighbors(u)
	for _, x := range in {
		var xv V
		var ver uint32
		if r.pm.WorkerOf(x) == w.id {
			xv = r.loadValue(x)
			if r.rec != nil {
				ver = r.versions[x].Load()
			}
		} else {
			w.replicaMu.RLock()
			xv = w.replica[x]
			ver = w.replicaVer[x]
			w.replicaMu.RUnlock()
		}
		if r.rec != nil {
			txn.Reads = append(txn.Reads, history.Read{
				Src: x, SlotVer: ver, PrimaryVer: r.versions[x].Load(),
			})
		}
		m := r.prog.Gather(u, x, xv, 1)
		if hasAcc {
			acc = r.prog.Sum(acc, m)
		} else {
			acc = m
			hasAcc = true
		}
	}

	// Apply.
	old := r.loadValue(u)
	newV, activate := r.prog.Apply(u, old, acc, hasAcc)
	changed := newV != old
	var ver uint32
	if changed {
		r.storeValue(u, newV)
		if r.versions != nil {
			ver = r.versions[u].Add(1)
		}
	}

	if r.rec != nil {
		txn.End = r.rec.Tick()
		txn.Wrote = changed
		txn.WriteVer = ver
		r.rec.Append(txn)
	}

	// Scatter: push the new value to remote replicas of u and activate
	// out-neighbors when requested.
	if !changed && !activate {
		return
	}
	var perWorker map[int][]graph.VertexID
	for _, x := range r.g.OutNeighbors(u) {
		ow := r.pm.WorkerOf(x)
		if ow == w.id {
			if activate {
				w.schedule(x)
			}
			continue
		}
		if perWorker == nil {
			perWorker = make(map[int][]graph.VertexID)
		}
		if activate {
			perWorker[ow] = append(perWorker[ow], x)
		} else if _, ok := perWorker[ow]; !ok {
			perWorker[ow] = nil
		}
	}
	if changed || activate {
		val := r.loadValue(u)
		for ow, acts := range perWorker {
			w.bufferUpdate(ow, replUpdate[V]{Src: u, Val: val, Ver: ver, Activate: acts})
		}
	}
}

func (w *gworker[V, M]) bufferUpdate(dest int, up replUpdate[V]) {
	w.bufMu.Lock()
	w.buffers[dest] = append(w.buffers[dest], up)
	full := len(w.buffers[dest]) >= w.r.cfg.BufferCap
	w.bufMu.Unlock()
	// Without locking there are no fork handoffs to trigger flushes:
	// GraphLab async sends updates as they happen. With locking, batches
	// accumulate until the next handoff to that worker (§6.3).
	if full || !w.r.cfg.Serializable {
		w.flushTo(dest)
	}
}

func (w *gworker[V, M]) flushTo(dest int) {
	w.bufMu.Lock()
	batch := w.buffers[dest]
	w.buffers[dest] = nil
	w.bufMu.Unlock()
	if len(batch) == 0 {
		return
	}
	bytes := cluster.BatchHeaderBytes
	for _, up := range batch {
		bytes += cluster.EntryHeaderBytes + w.r.prog.ValBytes + 4*len(up.Activate)
	}
	w.ep.SendData(cluster.WorkerID(dest), batch, bytes)
}

func (w *gworker[V, M]) onData(from cluster.WorkerID, payload any) {
	batch := payload.([]replUpdate[V])
	w.replicaMu.Lock()
	for _, up := range batch {
		w.replica[up.Src] = up.Val
		w.replicaVer[up.Src] = up.Ver
	}
	w.replicaMu.Unlock()
	for _, up := range batch {
		for _, x := range up.Activate {
			w.schedule(x)
		}
	}
}

func (w *gworker[V, M]) onCtrl(from cluster.WorkerID, payload any) {
	w.mgr.HandleCtrls(payload.([]chandy.Ctrl))
}
