package dist

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/cluster"
	"serialgraph/internal/engine"
	"serialgraph/internal/graph"
	"serialgraph/internal/model"
	"serialgraph/internal/msgstore"
	"serialgraph/internal/partition"
	"serialgraph/internal/wire"
)

// Work joins a coordinator as one worker process: dial, introduce
// ourselves, receive the job, run it, ship our values back. It blocks
// until the run finishes and returns the first error that broke it.
func Work(joinAddr string) error {
	// The data-plane listener must exist before Hello so its address can
	// ride along.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("dist: data listen: %w", err)
	}
	defer ln.Close()

	conn, err := cluster.DialRetry(joinAddr, DialTimeout)
	if err != nil {
		return fmt.Errorf("dist: join %s: %w", joinAddr, err)
	}
	ctrl := newFrameConn(conn)
	defer ctrl.close()

	hello := wire.Hello{Version: cluster.ProtocolVersion, Worker: -1, Addr: ln.Addr().String()}
	if err := ctrl.writeFlush(&cluster.Frame{Type: cluster.FrameHello, Payload: wire.AppendHello(nil, hello)}); err != nil {
		return fmt.Errorf("dist: send hello: %w", err)
	}
	jf, err := ctrl.expect(cluster.FrameJob)
	if err != nil {
		return fmt.Errorf("dist: read job: %w", err)
	}
	job, err := wire.DecodeJob(jf.Payload)
	if err != nil {
		return fmt.Errorf("dist: decode job: %w", err)
	}

	switch job.Alg {
	case "sssp":
		return runWorker(ctrl, ln, job, algorithms.SSSP(graph.VertexID(job.Source)))
	case "pagerank":
		return runWorker(ctrl, ln, job, algorithms.PageRank(job.Eps))
	case "pagerank-agg":
		return runWorker(ctrl, ln, job, algorithms.PageRankAggregated(job.Eps))
	case "coloring":
		return runWorker(ctrl, ln, job, algorithms.Coloring())
	case "wcc":
		return runWorker(ctrl, ln, job, algorithms.WCC())
	}
	return fmt.Errorf("dist: unknown algorithm %q", job.Alg)
}

// peerSet is one worker's data-plane connections: out[j] carries frames
// to worker j (we dialed), in[j] carries frames from worker j (they
// dialed us). Each conn has exactly one writer and one reader goroutine.
type peerSet struct {
	me  int
	out []*frameConn
	in  []*frameConn
}

// connectPeers establishes the full data-plane mesh. Outbound dials
// retry, so worker processes may start in any order; inbound conns are
// routed by the Hello preamble the dialer writes first.
func connectPeers(ln net.Listener, me, workers int, addrs []string) (*peerSet, error) {
	ps := &peerSet{me: me, out: make([]*frameConn, workers), in: make([]*frameConn, workers)}
	var dialErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < workers; j++ {
			if j == me {
				continue
			}
			c, err := cluster.DialRetry(addrs[j], DialTimeout)
			if err != nil {
				dialErr = fmt.Errorf("dist: dial peer %d: %w", j, err)
				return
			}
			fc := newFrameConn(c)
			h := wire.Hello{Version: cluster.ProtocolVersion, Worker: int32(me)}
			if err := fc.writeFlush(&cluster.Frame{Type: cluster.FrameHello, Payload: wire.AppendHello(nil, h)}); err != nil {
				dialErr = fmt.Errorf("dist: hello peer %d: %w", j, err)
				return
			}
			ps.out[j] = fc
		}
	}()
	// Bound the whole mesh setup: a peer that never dials in must not
	// wedge Accept forever.
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(time.Now().Add(DialTimeout))
		defer tl.SetDeadline(time.Time{})
	}
	for accepted := 0; accepted < workers-1; accepted++ {
		c, err := ln.Accept()
		if err != nil {
			return nil, fmt.Errorf("dist: accept peer: %w", err)
		}
		fc := newFrameConn(c)
		hf, err := fc.expect(cluster.FrameHello)
		if err != nil {
			return nil, fmt.Errorf("dist: peer hello: %w", err)
		}
		h, err := wire.DecodeHello(hf.Payload)
		if err != nil {
			return nil, fmt.Errorf("dist: peer hello: %w", err)
		}
		if h.Version != cluster.ProtocolVersion {
			return nil, fmt.Errorf("dist: peer protocol version %d, want %d", h.Version, cluster.ProtocolVersion)
		}
		if h.Worker < 0 || int(h.Worker) >= workers || int(h.Worker) == me || ps.in[h.Worker] != nil {
			return nil, fmt.Errorf("dist: bad peer id %d in hello", h.Worker)
		}
		ps.in[h.Worker] = fc
	}
	wg.Wait()
	if dialErr != nil {
		return nil, dialErr
	}
	return ps, nil
}

func (ps *peerSet) close() {
	for _, fc := range ps.out {
		if fc != nil {
			fc.close()
		}
	}
	for _, fc := range ps.in {
		if fc != nil {
			fc.close()
		}
	}
}

// distCtx implements model.Context for the distributed BSP driver. The
// semantics mirror the engine's vctx exactly: Send routes by the shared
// partition map, VoteToHalt is re-armed on every execution, aggregates
// accumulate locally and surface merged next superstep.
type distCtx[V, M any] struct {
	w         *workerRun[V, M]
	id        graph.VertexID
	superstep int
	votedHalt bool
}

func (c *distCtx[V, M]) Superstep() int                 { return c.superstep }
func (c *distCtx[V, M]) ID() graph.VertexID             { return c.id }
func (c *distCtx[V, M]) Value() V                       { return c.w.values[c.id] }
func (c *distCtx[V, M]) SetValue(v V)                   { c.w.values[c.id] = v }
func (c *distCtx[V, M]) OutNeighbors() []graph.VertexID { return c.w.g.OutNeighbors(c.id) }
func (c *distCtx[V, M]) OutWeights() []float64          { return c.w.g.OutWeights(c.id) }
func (c *distCtx[V, M]) VoteToHalt()                    { c.votedHalt = true }
func (c *distCtx[V, M]) NumVertices() int               { return c.w.g.NumVertices() }

func (c *distCtx[V, M]) Send(dst graph.VertexID, m M) {
	w := c.w
	if dest := w.pm.WorkerOf(dst); dest != w.me {
		w.buf.Add(dest, msgstore.Entry[M]{Dst: dst, Src: c.id, Msg: m})
		return
	}
	w.writeStore().PutSlot(dst, c.id, m, 0, 0)
}

func (c *distCtx[V, M]) SendToAllOut(m M) {
	for _, dst := range c.w.g.OutNeighbors(c.id) {
		c.Send(dst, m)
	}
}

func (c *distCtx[V, M]) Aggregate(name string, v float64) { c.w.aggLocal[name] += v }
func (c *distCtx[V, M]) Aggregated(name string) float64   { return c.w.aggPrev[name] }

func (c *distCtx[V, M]) AddEdgeRequest(src, dst graph.VertexID, w float64) {
	panic("dist: topology mutations are not supported in multi-process runs")
}
func (c *distCtx[V, M]) RemoveEdgeRequest(src, dst graph.VertexID) {
	panic("dist: topology mutations are not supported in multi-process runs")
}

// workerRun is the per-run state of one worker process.
type workerRun[V, M any] struct {
	g     *graph.Graph
	pm    *partition.Map
	me    int
	nw    int
	prog  model.Program[V, M]
	codec *wire.Codec[M]

	owned  []graph.VertexID
	values []V
	halted []bool

	// Double-buffered message stores, engine layout: stores[active] is
	// read this superstep, stores[1-active] receives sends for the next.
	// active is atomic because the inbound pumps consult it; the protocol
	// guarantees pumps only apply frames for the superstep the flag
	// already reflects (a peer cannot enter superstep s+1 before our
	// StepDone for s, which we send only after flipping).
	stores [2]*msgstore.Store[M]
	active atomic.Int32

	buf *msgstore.Buffer[M]
	// spill is the bounded-memory staging tier for inbound remote batches
	// (DESIGN.md §12), non-nil when Job.MsgMemoryBudget > 0: the pumps
	// stage Data-frame batches here instead of applying them directly, and
	// the superstep barrier drains the merge into the write store before
	// the flip. Locally-delivered messages (same-process PutSlot) bypass
	// it — they never occupy transport buffers.
	spill    *msgstore.Spill[M]
	peers    *peerSet
	aggLocal map[string]float64
	aggPrev  map[string]float64

	// Superstep ledgers (reset per run, reported in StepDone deltas).
	executions  int64
	sentBatches int64
	sentBytes   int64

	// Barrier bookkeeping: pumps count peer barriers, the main loop
	// waits for nw-1 of them.
	mu       sync.Mutex
	cond     *sync.Cond
	barriers int
	pumpErr  error
	pumpWG   sync.WaitGroup

	scratch []byte
}

func (w *workerRun[V, M]) readStore() *msgstore.Store[M]  { return w.stores[w.active.Load()] }
func (w *workerRun[V, M]) writeStore() *msgstore.Store[M] { return w.stores[1-w.active.Load()] }

// runWorker executes the job. The superstep loop is the engine's BSP
// path with the shared-memory master replaced by control frames:
// StepStart plays the dispatch, the peer Barrier frames play the
// worker-side flush ack, StepDone plays the barrier bookkeeping
// (aggregator merge input, halt votes, pending count).
func runWorker[V, M any](ctrl *frameConn, ln net.Listener, job Job, prog model.Program[V, M]) error {
	g, err := BuildGraph(job)
	if err != nil {
		return err
	}
	nw := int(job.Workers)
	me := int(job.You)
	pm, err := partition.New(job.Partitioner, g, nw*int(job.PartsPerWorker), nw, job.Seed)
	if err != nil {
		return err
	}

	w := &workerRun[V, M]{g: g, pm: pm, me: me, nw: nw, prog: prog}
	w.cond = sync.NewCond(&w.mu)
	if prog.MsgAppend != nil && prog.MsgRead != nil {
		w.codec = wire.NewCodecWith(wire.MsgCodec[M]{Append: prog.MsgAppend, Read: prog.MsgRead})
	} else {
		w.codec = wire.NewCodec[M]()
	}

	for _, p := range pm.PartitionsOfWorker(me) {
		w.owned = append(w.owned, pm.Vertices(p)...)
	}
	w.values = make([]V, g.NumVertices())
	w.halted = make([]bool, g.NumVertices())
	if prog.Init != nil {
		for _, v := range w.owned {
			w.values[v] = prog.Init(v, g)
		}
	}
	w.stores[0] = msgstore.New[M](g, w.owned, prog.Semantics, prog.Combine)
	w.stores[1] = msgstore.New[M](g, w.owned, prog.Semantics, prog.Combine)

	// The engine's default batch threshold, so distributed and in-process
	// runs batch identically (same batch counts and simulated bytes in the
	// ledgers the conformance tests reconcile).
	w.buf = msgstore.NewBuffer(nw, engine.DefaultBufferCap, prog.MsgBytes,
		cluster.BatchHeaderBytes, cluster.EntryHeaderBytes, w.sendBatch)
	if prog.Semantics == model.Combine && prog.Combine != nil {
		w.buf.SetCombiner(prog.Combine)
	}
	if job.MsgMemoryBudget > 0 {
		per := job.MsgMemoryBudget / int64(nw)
		if per <= 0 {
			per = job.MsgMemoryBudget
		}
		w.spill = msgstore.NewSpill[M](per, prog.MsgBytes,
			cluster.BatchHeaderBytes, cluster.EntryHeaderBytes)
		defer w.spill.Close()
	}

	w.peers, err = connectPeers(ln, me, nw, job.Peers)
	if err != nil {
		return err
	}
	defer w.peers.close()
	for j, fc := range w.peers.in {
		if fc == nil {
			continue
		}
		w.pumpWG.Add(1)
		go w.pump(j, fc)
	}

	err = w.loop(ctrl)
	if err != nil {
		// Broken run: force-close everything so blocked pumps unwind
		// instead of waiting on peers that will never half-close.
		w.peers.close()
	} else {
		// Clean finish: half-close outbound data conns so peer pumps see
		// EOF after draining (peers do the same for ours).
		for _, fc := range w.peers.out {
			if fc != nil {
				fc.flush()
				fc.closeWrite()
			}
		}
	}
	w.pumpWG.Wait()
	return err
}

// sendBatch is the Buffer flush hook: encode the batch and write one
// Data frame to the destination peer. bytes is the simulated ledger size
// (header + per-entry costs), carried as Declared so both ends account
// identically to the Mem backend.
func (w *workerRun[V, M]) sendBatch(dest int, batch []msgstore.Entry[M], bytes int) {
	fc := w.peers.out[dest]
	ftype, payload, err := w.codec.EncodePayload(batch, w.scratch[:0])
	if err != nil {
		panic(fmt.Sprintf("dist: encode batch: %v", err))
	}
	w.scratch = payload[:0]
	f := cluster.Frame{Type: ftype, From: cluster.WorkerID(w.me), To: cluster.WorkerID(dest), Declared: bytes, Payload: payload}
	if err := fc.write(&f); err != nil {
		panic(fmt.Sprintf("dist: send batch to %d: %v", dest, err))
	}
	w.sentBatches++
	w.sentBytes += int64(bytes)
}

// pump drains one inbound peer connection: Data frames apply to the
// write store, Barrier frames bump the barrier counter. Exits on EOF
// (peer finished and half-closed).
func (w *workerRun[V, M]) pump(from int, fc *frameConn) {
	defer w.pumpWG.Done()
	for {
		f, err := fc.read()
		if err != nil {
			// EOF is the peer's clean half-close; a closed local conn is
			// our own error-path teardown. Anything else is a real fault.
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				w.failPump(fmt.Errorf("dist: pump from %d: %w", from, err))
			}
			return
		}
		switch f.Type {
		case cluster.FrameData:
			payload, err := w.codec.DecodePayload(f.Type, f.Payload)
			if err != nil {
				w.failPump(fmt.Errorf("dist: decode batch from %d: %w", from, err))
				return
			}
			if w.spill != nil {
				w.spill.Add(payload.([]msgstore.Entry[M]), w.writeStore())
			} else {
				w.writeStore().PutBatch(payload.([]msgstore.Entry[M]))
			}
		case cluster.FrameBarrier:
			w.mu.Lock()
			w.barriers++
			w.cond.Broadcast()
			w.mu.Unlock()
		default:
			w.failPump(fmt.Errorf("dist: unexpected frame 0x%02x from peer %d", f.Type, from))
			return
		}
	}
}

func (w *workerRun[V, M]) failPump(err error) {
	w.mu.Lock()
	if w.pumpErr == nil {
		w.pumpErr = err
	}
	w.cond.Broadcast()
	w.mu.Unlock()
}

// loop runs supersteps until the coordinator sends Finish, then ships
// the final values.
func (w *workerRun[V, M]) loop(ctrl *frameConn) error {
	for {
		f, err := ctrl.read()
		if err != nil {
			return fmt.Errorf("dist: read control: %w", err)
		}
		switch f.Type {
		case cluster.FrameStepStart:
			ss, err := wire.DecodeStepStart(f.Payload)
			if err != nil {
				return fmt.Errorf("dist: decode step start: %w", err)
			}
			if err := w.superstep(ctrl, ss); err != nil {
				return err
			}
		case cluster.FrameFinish:
			if _, err := wire.DecodeFinish(f.Payload); err != nil {
				return fmt.Errorf("dist: decode finish: %w", err)
			}
			return w.sendValues(ctrl)
		default:
			return fmt.Errorf("dist: unexpected control frame 0x%02x", f.Type)
		}
	}
}

func (w *workerRun[V, M]) superstep(ctrl *frameConn, ss wire.StepStart) error {
	s := int(ss.Superstep)
	w.aggPrev = aggMap(ss.AggKeys, ss.AggVals)
	w.aggLocal = make(map[string]float64)
	startBatches, startBytes := w.sentBatches, w.sentBytes
	var execs int64

	// Compute: sequential over partitions in map order. BSP results are
	// schedule-independent (all reads hit the frozen read store), so one
	// thread is semantically identical to the engine's thread pool.
	ctx := distCtx[V, M]{w: w, superstep: s}
	var reader msgstore.Reader[M]
	rs := w.readStore()
	for _, p := range w.pm.PartitionsOfWorker(w.me) {
		for _, v := range w.pm.Vertices(p) {
			if w.halted[v] && !rs.HasNew(v) {
				continue
			}
			rs.Read(v, &reader)
			ctx.id = v
			ctx.votedHalt = false
			w.prog.Compute(&ctx, reader.Msgs)
			w.halted[v] = ctx.votedHalt
			execs++
		}
	}
	w.executions += execs

	// Flush straggler batches, then barrier-mark every peer stream. The
	// flush ordering (all data first, then the barrier, same FIFO conn)
	// is what lets receivers treat the barrier as "all my data arrived".
	w.buf.FlushAll()
	for j, fc := range w.peers.out {
		if fc == nil {
			continue
		}
		bf := cluster.Frame{Type: cluster.FrameBarrier, From: cluster.WorkerID(w.me), To: cluster.WorkerID(j),
			Payload: wire.AppendBarrier(nil, wire.Barrier{Superstep: int32(s)})}
		if err := fc.writeFlush(&bf); err != nil {
			return fmt.Errorf("dist: barrier to %d: %w", j, err)
		}
	}

	// Wait for every peer's barrier: after that, all messages addressed
	// to us for superstep s+1 are in the write store.
	w.mu.Lock()
	for w.barriers < w.nw-1 && w.pumpErr == nil {
		w.cond.Wait()
	}
	w.barriers -= w.nw - 1
	err := w.pumpErr
	w.mu.Unlock()
	if err != nil {
		return err
	}

	// Every peer's barrier arrived, so all of superstep s's inbound data
	// is staged; merge the spill tier into the write store before the
	// flip (engine barrier order: drain, clear, flip).
	if w.spill != nil {
		if err := w.spill.Drain(w.writeStore()); err != nil {
			return fmt.Errorf("dist: spill drain: %w", err)
		}
	}
	// Engine barrier order: clear the consumed read store, flip, then
	// count pending across both stores (Overwrite stores retain state in
	// the read store too).
	w.readStore().Clear()
	w.active.Store(1 - w.active.Load())
	pending := w.stores[0].NewCount() + w.stores[1].NewCount()
	var unhalted int64
	for _, v := range w.owned {
		if !w.halted[v] {
			unhalted++
		}
	}

	keys, vals := sortedAggs(w.aggLocal)
	done := wire.StepDone{
		Superstep:   int32(s),
		Unhalted:    unhalted,
		Pending:     pending,
		Executions:  execs,
		SentBatches: w.sentBatches - startBatches,
		SentBytes:   w.sentBytes - startBytes,
		WireBytes:   w.wireOut(),
		AggKeys:     keys,
		AggVals:     vals,
	}
	return ctrl.writeFlush(&cluster.Frame{Type: cluster.FrameStepDone, From: cluster.WorkerID(w.me),
		Payload: wire.AppendStepDone(nil, done)})
}

// wireOut totals true bytes written to peer sockets so far.
func (w *workerRun[V, M]) wireOut() int64 {
	var n int64
	for _, fc := range w.peers.out {
		if fc != nil {
			n += fc.wireOut.Load()
		}
	}
	return n
}

// sendValues ships this worker's owned (vertex, value) pairs to the
// coordinator in one Values frame.
func (w *workerRun[V, M]) sendValues(ctrl *frameConn) error {
	vals := make([]wire.ValueEntry[V], len(w.owned))
	for i, v := range w.owned {
		vals[i] = wire.ValueEntry[V]{ID: int32(v), Val: w.values[v]}
	}
	payload := wire.AppendValues(nil, wire.AutoMsgCodec[V](), vals)
	return ctrl.writeFlush(&cluster.Frame{Type: cluster.FrameValues, From: cluster.WorkerID(w.me), Payload: payload})
}
