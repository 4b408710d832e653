package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"serialgraph/internal/chandy"
	"serialgraph/internal/cluster"
	"serialgraph/internal/graph"
	"serialgraph/internal/model"
	"serialgraph/internal/msgstore"
	"serialgraph/internal/partition"
	"serialgraph/internal/wire"
)

// Layer microbenchmarks. Each one calls a module's public functions with
// the shapes the workload produces: the workload's graph and partition
// map, PageRank's float64 message, and the engine's 512-entry batches.

const (
	batchEntries = 512 // engine.Config.BufferCap default
	microReps    = 5   // each microbenchmark reports the median of its reps
)

// spillBudgetWorkload names the workload whose MsgMemoryBudget the spill
// microbenchmark runs under on every workload: the only one that spills.
const spillBudgetWorkload = "pagerank-bsp-tcp"

type microEnv struct {
	w       *workload
	c       clusterSpec
	g       *graph.Graph
	pm      *partition.Map // the workload's own placement
	budget  int64          // MsgMemoryBudget of spillBudgetWorkload
	batches [][]msgstore.Entry[float64]
	owned   []graph.VertexID // vertices of the batches' destination worker
}

// runMicro runs every layer microbenchmark and returns its per-layer
// metrics.
func runMicro(s *benchSpec, w *workload, g *graph.Graph, seed int64) (map[string]float64, error) {
	c := s.Cluster
	parts := c.Workers * c.PartitionsPerWorker
	if w.Engine == "gas" {
		parts = c.Workers // GraphLab async maps one partition per worker
	}
	out := map[string]float64{}
	var pm *partition.Map
	out["partition.build_s"] = medianOf(microReps, func() float64 {
		t0 := time.Now()
		var err error
		pm, err = partition.New(partition.KindHash, g, parts, c.Workers, uint64(seed))
		if err != nil {
			panic(err) // KindHash is always known
		}
		return time.Since(t0).Seconds()
	})
	sb, err := s.workload(spillBudgetWorkload)
	if err != nil {
		return nil, err
	}
	env := &microEnv{w: w, c: c, g: g, pm: pm, budget: sb.Budget}
	env.batches, env.owned = pageRankBatches(g, pm, 1%c.Workers)

	out["chandy.cycle_ns"], out["chandy.ctrl_per_cycle"] = env.chandyCycle()
	out["cluster.mem_send_ns"] = env.memSend()
	if out["cluster.tcp_batch_us"], err = env.tcpBatch(); err != nil {
		return nil, err
	}
	out["cluster.credit_cycle_ns"] = env.creditCycle()
	out["wire.encode_ns_per_entry"], out["wire.decode_ns_per_entry"], out["wire.bytes_per_entry"], err = env.wireCodec()
	if err != nil {
		return nil, err
	}
	out["msgstore.putbatch_ns_per_msg"] = env.putBatch()
	out["msgstore.addbatch_ns_per_msg"] = env.addBatch()
	if out["msgstore.spill_write_mb_s"], out["msgstore.spill_replay_mb_s"], err = env.spill(); err != nil {
		return nil, err
	}
	return out, nil
}

func medianOf(reps int, f func() float64) float64 {
	v := make([]float64, reps)
	for i := range v {
		v[i] = f()
	}
	return median(v)
}

// pageRankBatches returns the PageRank messages every other worker sends to
// worker dest in one superstep, in the engine's send order (source vertices
// ascending), cut into full batches, and dest's owned vertices.
func pageRankBatches(g *graph.Graph, pm *partition.Map, dest int) ([][]msgstore.Entry[float64], []graph.VertexID) {
	var all []msgstore.Entry[float64]
	var owned []graph.VertexID
	for v := 0; v < g.NumVertices(); v++ {
		u := graph.VertexID(v)
		if pm.WorkerOf(u) == dest {
			owned = append(owned, u)
			continue
		}
		nbs := g.OutNeighbors(u)
		for _, x := range nbs {
			if pm.WorkerOf(x) != dest {
				continue
			}
			slot, _ := g.InSlot(x, u)
			all = append(all, msgstore.Entry[float64]{Dst: x, Src: u, Msg: 1 / float64(len(nbs)), Slot: uint32(slot) + 1})
		}
	}
	var batches [][]msgstore.Entry[float64]
	for len(all) > 0 {
		n := min(batchEntries, len(all))
		batches = append(batches, all[:n:n])
		all = all[n:]
	}
	return batches, owned
}

func (e *microEnv) entries() int {
	n := 0
	for _, b := range e.batches {
		n += len(b)
	}
	return n
}

func batchBytes(entries int) int {
	return cluster.BatchHeaderBytes + entries*(cluster.EntryHeaderBytes+8)
}

// loopback delivers Chandy–Misra control messages between in-process
// managers in send order on one goroutine. Delivery cannot be inline: a
// manager sends while holding its lock, and the receiver may answer at once.
type loopback struct {
	mgrs   []*chandy.Manager
	mu     sync.Mutex
	cond   *sync.Cond
	q      []loopMsg
	closed bool
	sent   atomic.Int64
	done   chan struct{}
}

type loopMsg struct {
	to int
	c  chandy.Ctrl
}

func newLoopback() *loopback {
	l := &loopback{done: make(chan struct{})}
	l.cond = sync.NewCond(&l.mu)
	return l
}

func (l *loopback) send(to int, c chandy.Ctrl) {
	l.sent.Add(1)
	l.mu.Lock()
	l.q = append(l.q, loopMsg{to, c})
	l.mu.Unlock()
	l.cond.Signal()
}

func (l *loopback) run() {
	defer close(l.done)
	for {
		l.mu.Lock()
		for len(l.q) == 0 && !l.closed {
			l.cond.Wait()
		}
		if len(l.q) == 0 {
			l.mu.Unlock()
			return
		}
		m := l.q[0]
		l.q = l.q[1:]
		l.mu.Unlock()
		l.mgrs[m.to].HandleCtrl(m.c)
	}
}

func (l *loopback) stop() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.cond.Signal()
	<-l.done
}

// chandyCycle times one Acquire+Release per philosopher over the conflict
// graph the workload's placement induces: partitions under the Pregel
// techniques, vertices under vertex-based locking. It returns the median
// pass's ns per cycle and control messages per cycle.
func (e *microEnv) chandyCycle() (float64, float64) {
	var ids []chandy.PhilID
	var neighbors func(chandy.PhilID) []chandy.PhilID
	var ownerOf func(chandy.PhilID) int
	if e.w.Sync == "vertex-lock" {
		ownerOf = func(p chandy.PhilID) int { return e.pm.WorkerOf(graph.VertexID(p)) }
		neighbors = func(p chandy.PhilID) []chandy.PhilID {
			var nbs []chandy.PhilID
			e.g.Neighbors(graph.VertexID(p), func(x graph.VertexID) { nbs = append(nbs, chandy.PhilID(x)) })
			return nbs
		}
		for v := 0; v < e.g.NumVertices(); v++ {
			ids = append(ids, chandy.PhilID(v))
		}
	} else {
		partNbs := e.pm.Neighbors(e.g)
		ownerOf = func(p chandy.PhilID) int { return e.pm.WorkerOfPartition(partition.ID(p)) }
		neighbors = func(p chandy.PhilID) []chandy.PhilID {
			nbs := make([]chandy.PhilID, len(partNbs[p]))
			for i, q := range partNbs[p] {
				nbs[i] = chandy.PhilID(q)
			}
			return nbs
		}
		for p := range partNbs {
			ids = append(ids, chandy.PhilID(p))
		}
	}
	lb := newLoopback()
	lb.mgrs = make([]*chandy.Manager, e.c.Workers)
	for i := range lb.mgrs {
		lb.mgrs[i] = chandy.NewManager(i, ownerOf, lb.send, nil)
	}
	for _, id := range ids {
		lb.mgrs[ownerOf(id)].AddPhil(id, neighbors(id))
	}
	go lb.run()
	defer lb.stop()

	pass := func() (float64, float64) {
		sent0 := lb.sent.Load()
		t0 := time.Now()
		for _, id := range ids {
			m := lb.mgrs[ownerOf(id)]
			if !m.Acquire(id) {
				panic("chandy: Acquire failed on a manager that was never aborted")
			}
			m.Release(id)
		}
		n := float64(len(ids))
		return float64(time.Since(t0).Nanoseconds()) / n, float64(lb.sent.Load()-sent0) / n
	}
	pass() // the first pass moves forks off their initial placement
	cycle := make([]float64, microReps)
	ctrl := make([]float64, microReps)
	for i := range cycle {
		cycle[i], ctrl[i] = pass()
	}
	return median(cycle), median(ctrl)
}

// memSend times Mem.Send of 512-entry batches to handler delivery at zero
// latency, fanned out from worker 0 to every other worker, in ns per message.
func (e *microEnv) memSend() float64 {
	tr := cluster.New(e.c.Workers, cluster.LatencyModel{})
	defer tr.Close()
	for i := 0; i < e.c.Workers; i++ {
		tr.RegisterHandler(cluster.WorkerID(i), func(cluster.Message) {})
	}
	batch := e.batches[0]
	bytes := batchBytes(len(batch))
	const msgs = 20000
	return medianOf(microReps, func() float64 {
		t0 := time.Now()
		for i := 0; i < msgs; i++ {
			to := cluster.WorkerID(1 + i%(e.c.Workers-1))
			tr.Send(cluster.Message{From: 0, To: to, Kind: cluster.Data, Bytes: bytes, Payload: batch})
		}
		tr.WaitIdle()
		return float64(time.Since(t0).Nanoseconds()) / msgs
	})
}

// tcpBatch times one full batch sent one way over TCP loopback, from Send to
// the receiver's handler, in µs.
func (e *microEnv) tcpBatch() (float64, error) {
	tr, err := cluster.NewTCPLoopback(2, cluster.LatencyModel{}, wire.NewCodec[float64]())
	if err != nil {
		return 0, err
	}
	defer tr.Close()
	got := make(chan struct{}, 1)
	tr.RegisterHandler(0, func(cluster.Message) {})
	tr.RegisterHandler(1, func(cluster.Message) { got <- struct{}{} })
	batch := e.batches[0]
	bytes := batchBytes(len(batch))
	const sends = 400
	lat := make([]float64, sends)
	for i := range lat {
		t0 := time.Now()
		tr.Send(cluster.Message{From: 0, To: 1, Kind: cluster.Data, Bytes: bytes, Payload: batch})
		<-got
		lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return median(lat[sends/10:]), nil // the first sends warm the connection
}

// creditCycle times one Flow.Acquire+Release of a full batch's bytes under
// the workload's credit window, in ns.
func (e *microEnv) creditCycle() float64 {
	f := cluster.NewFlow(e.c.Workers, cluster.WindowForBudget(e.w.Budget, e.c.Workers))
	bytes := batchBytes(batchEntries)
	const cycles = 200000
	return medianOf(microReps, func() float64 {
		t0 := time.Now()
		for i := 0; i < cycles; i++ {
			f.Acquire(0, 1, bytes)
			f.Release(0, 1, bytes)
		}
		return float64(time.Since(t0).Nanoseconds()) / cycles
	})
}

// wireCodec times Codec.EncodePayload and DecodePayload on the batches, in
// ns per entry, and reports encoded bytes per entry.
func (e *microEnv) wireCodec() (enc, dec, bytesPerEntry float64, err error) {
	codec := wire.NewCodec[float64]()
	encoded := make([][]byte, len(e.batches))
	total := 0
	for i, b := range e.batches {
		if _, encoded[i], err = codec.EncodePayload(b, nil); err != nil {
			return 0, 0, 0, err
		}
		total += len(encoded[i])
	}
	n := float64(e.entries())
	buf := make([]byte, 0, total)
	enc = medianOf(microReps, func() float64 {
		t0 := time.Now()
		for _, b := range e.batches {
			_, buf, err = codec.EncodePayload(b, buf[:0])
		}
		return float64(time.Since(t0).Nanoseconds()) / n
	})
	if err != nil {
		return 0, 0, 0, err
	}
	dec = medianOf(microReps, func() float64 {
		t0 := time.Now()
		for _, b := range encoded {
			if _, derr := codec.DecodePayload(cluster.FrameData, b); derr != nil {
				err = derr
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / n
	})
	return enc, dec, float64(total) / n, err
}

func (e *microEnv) overwriteStore() *msgstore.Store[float64] {
	return msgstore.New[float64](e.g, e.owned, model.Overwrite, nil)
}

// putBatch times Store.PutBatch of the batches into their destination
// worker's Overwrite store, in ns per message.
func (e *microEnv) putBatch() float64 {
	st := e.overwriteStore()
	n := float64(e.entries())
	return medianOf(microReps, func() float64 {
		t0 := time.Now()
		for _, b := range e.batches {
			st.PutBatch(b)
		}
		return float64(time.Since(t0).Nanoseconds()) / n
	})
}

// addBatch times Buffer.AddBatch as worker 0's compute threads call it:
// one call per (source vertex, destination worker) group of remote
// messages, with spent batches recycled as the engine does. ns per message.
func (e *microEnv) addBatch() float64 {
	type group struct {
		dest int
		es   []msgstore.Entry[float64]
	}
	var groups []group
	msgs := 0
	for v := 0; v < e.g.NumVertices(); v++ {
		u := graph.VertexID(v)
		if e.pm.WorkerOf(u) != 0 {
			continue
		}
		nbs := e.g.OutNeighbors(u)
		byDest := map[int][]msgstore.Entry[float64]{}
		for _, x := range nbs {
			if d := e.pm.WorkerOf(x); d != 0 {
				byDest[d] = append(byDest[d], msgstore.Entry[float64]{Dst: x, Src: u, Msg: 1 / float64(len(nbs))})
			}
		}
		dests := make([]int, 0, len(byDest))
		for d := range byDest {
			dests = append(dests, d)
		}
		sort.Ints(dests)
		for _, d := range dests {
			groups = append(groups, group{d, byDest[d]})
			msgs += len(byDest[d])
		}
	}
	var pool [][]msgstore.Entry[float64]
	buf := msgstore.NewBuffer[float64](e.c.Workers, batchEntries, 8, cluster.BatchHeaderBytes, cluster.EntryHeaderBytes,
		func(_ int, batch []msgstore.Entry[float64], _ int) { pool = append(pool, batch) })
	buf.SetAlloc(func() []msgstore.Entry[float64] {
		if len(pool) == 0 {
			return nil
		}
		b := pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		return b
	})
	return medianOf(microReps, func() float64 {
		t0 := time.Now()
		for _, gr := range groups {
			buf.AddBatch(gr.dest, gr.es)
		}
		buf.FlushAll()
		return float64(time.Since(t0).Nanoseconds()) / float64(msgs)
	})
}

// spill stages the batches through a Spill sink capped at one worker's share
// of the spill workload's budget until several MiB reach disk, then drains
// them into the store. It returns the write and replay rates in MB/s.
func (e *microEnv) spill() (write, replay float64, err error) {
	per := e.budget / int64(e.c.Workers)
	batchBytesTotal := int64(0)
	for _, b := range e.batches {
		batchBytesTotal += int64(batchBytes(len(b)))
	}
	const target = 8 << 20
	rounds := int(target/batchBytesTotal) + 1
	st := e.overwriteStore()
	writes := make([]float64, microReps)
	replays := make([]float64, microReps)
	for r := range writes {
		sp := msgstore.NewSpill[float64](per, 8, cluster.BatchHeaderBytes, cluster.EntryHeaderBytes)
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			for _, b := range e.batches {
				sp.Add(b, nil)
			}
		}
		wdur := time.Since(t0)
		mb := float64(sp.SpilledBytes()) / 1e6
		t0 = time.Now()
		derr := sp.Drain(st)
		rdur := time.Since(t0)
		sp.Close()
		if derr != nil {
			return 0, 0, fmt.Errorf("spill drain: %w", derr)
		}
		if mb == 0 {
			return 0, 0, fmt.Errorf("spill: nothing spilled under a %d-byte budget", per)
		}
		writes[r], replays[r] = mb/wdur.Seconds(), mb/rdur.Seconds()
	}
	return median(writes), median(replays), nil
}
