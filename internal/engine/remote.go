package engine

// remote.go runs the engine across OS processes. A coordinator process
// plays the master (Coordinate) and runs the same master loop as an
// in-process run; each worker process hosts one engine worker (Join, Work)
// — the same vertex context, staging, buffer cache, Chandy–Misra manager
// and token lists — over a cluster.TCP whose lanes are sockets to the peer
// processes. Only wire frames cross a process boundary:
//
//	worker -> Hello{version, -1, data-plane address}
//	coord  -> Job{graph and program spec, run options, you, peers}
//	loop:   coord  -> StepStart{s, merged aggregates of s-1}
//	        worker -> StepDone{s, unhalted, pending, executions, local aggregates}
//	coord  -> Finish
//	worker -> Values{values of its vertices, traffic counters, metrics}
//
// Between StepStart and StepDone the workers end the superstep with a
// flush-marker barrier among themselves (cluster.Endpoint.Barrier), so the
// coordinator never needs an idle transport to know the superstep is over
// (DESIGN §11).

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sort"
	"time"

	"serialgraph/internal/cluster"
	"serialgraph/internal/graph"
	"serialgraph/internal/metrics"
	"serialgraph/internal/model"
	"serialgraph/internal/partition"
	"serialgraph/internal/wire"
)

// PartitionerNamed returns a Config.Partitioner that places vertices with
// the named strategy (partition.Kinds) and seed.
func PartitionerNamed(kind string, seed uint64) (func(g *graph.Graph, p, w int) *partition.Map, error) {
	if !partition.ValidKind(kind) {
		return nil, fmt.Errorf("unknown partitioner %q (want one of %v)", kind, partition.Kinds())
	}
	return func(g *graph.Graph, p, w int) *partition.Map {
		m, err := partition.New(kind, g, p, w, seed)
		if err != nil {
			panic(err) // unreachable: kind validated above
		}
		return m
	}, nil
}

// validateProcesses rejects, naming the option, what a multi-process run
// cannot do: everything that needs the master to reach into worker memory
// or a barrier the coordinator does not have.
func (c Config) validateProcesses() error {
	if err := c.validate(); err != nil {
		return err
	}
	var opt string
	switch {
	case c.Mode == BAP:
		opt = "Mode BAP (no superstep barriers to coordinate)"
	case c.Fault != nil:
		opt = "Fault"
	case c.Recovery != RecoverFull:
		opt = "Recovery"
	case c.CheckpointEvery > 0 || c.CheckpointDir != "" || c.RestoreFrom != "":
		opt = "CheckpointEvery/CheckpointDir/RestoreFrom"
	case c.WatchdogTimeout > 0:
		opt = "WatchdogTimeout"
	case c.TrackHistory:
		opt = "TrackHistory"
	case c.DetailedStats:
		opt = "DetailedStats"
	default:
		return nil
	}
	return fmt.Errorf("engine: multi-process runs do not support %s: the master cannot reach into worker processes", opt)
}

// job returns spec with the run options of c that a worker process needs,
// and jobConfig turns a job back into the Config it runs. The coordinator
// runs on the round trip too, so no option can differ between the master
// and its workers.
func (c Config) job(spec wire.Job) wire.Job {
	spec.Workers = int32(c.Workers)
	spec.PartsPerWorker = int32(c.PartitionsPerWorker)
	spec.ThreadsPerWorker = int32(c.ThreadsPerWorker)
	spec.Mode, spec.Sync = uint8(c.Mode), uint8(c.Sync)
	spec.MaxSupersteps = int32(c.MaxSupersteps)
	spec.Seed = c.Seed
	spec.MsgMemoryBudget = c.MsgMemoryBudget
	return spec
}

func jobConfig(j wire.Job) (Config, error) {
	c := Config{
		Workers:             int(j.Workers),
		PartitionsPerWorker: int(j.PartsPerWorker),
		ThreadsPerWorker:    int(j.ThreadsPerWorker),
		Mode:                Mode(j.Mode),
		Sync:                Sync(j.Sync),
		MaxSupersteps:       int(j.MaxSupersteps),
		Seed:                j.Seed,
		MsgMemoryBudget:     j.MsgMemoryBudget,
	}
	if j.Partitioner != "" {
		pf, err := PartitionerNamed(j.Partitioner, j.Seed)
		if err != nil {
			return c, fmt.Errorf("engine: job: %w", err)
		}
		c.Partitioner = pf
	}
	c = c.withDefaults()
	return c, c.validateProcesses()
}

// codecFor is the wire codec of prog's message type, honoring the
// program's explicit serialization contract when it declares one.
func codecFor[V, M any](prog model.Program[V, M]) cluster.PayloadCodec {
	if prog.MsgAppend != nil && prog.MsgRead != nil {
		return wire.NewCodecWith(wire.MsgCodec[M]{Append: prog.MsgAppend, Read: prog.MsgRead})
	}
	return wire.NewCodec[M]()
}

// ctrlConn is one coordinator–worker control connection. Control frames
// are few and small: each goes out in one Write and comes in through a
// buffered reader.
type ctrlConn struct {
	c  net.Conn
	br *bufio.Reader
}

func newCtrlConn(c net.Conn) *ctrlConn { return &ctrlConn{c: c, br: bufio.NewReader(c)} }

func (c *ctrlConn) send(ftype byte, from, to int, payload []byte) error {
	_, err := c.c.Write(cluster.AppendFrame(nil, &cluster.Frame{
		Type: ftype, From: cluster.WorkerID(from), To: cluster.WorkerID(to), Payload: payload}))
	return err
}

// recv reads one frame, which must be of type ftype.
func (c *ctrlConn) recv(ftype byte) ([]byte, error) {
	f, _, err := cluster.ReadFrame(c.br)
	if err == nil && f.Type != ftype {
		err = fmt.Errorf("expected control frame 0x%02x, got 0x%02x", ftype, f.Type)
	}
	return f.Payload, err
}

// ctrlMsg is one control frame read by a pump, or the error that ended it.
type ctrlMsg struct {
	from int // the sending worker, on the coordinator
	f    cluster.Frame
	err  error
}

// pump forwards the connection's frames to out until it fails, Values —
// the last frame a worker sends — has passed, or quit is closed, so a
// reader can wait on several connections, and on other events, at once.
func (c *ctrlConn) pump(from int, out chan<- ctrlMsg, quit <-chan struct{}) {
	for {
		f, _, err := cluster.ReadFrame(c.br)
		select {
		case out <- ctrlMsg{from, f, err}:
		case <-quit:
			return
		}
		if err != nil || f.Type == cluster.FrameValues {
			return
		}
	}
}

// link is a coordinator's control connection to one worker process, with
// that worker's latest StepDone and when it arrived.
type link struct {
	conn   *ctrlConn
	done   wire.StepDone
	finish time.Time
}

// Coordinate is the master of a multi-process run. It accepts cfg.Workers
// worker processes on ln, giving worker IDs in accept order, and sends
// each the job: spec with cfg's run options, the worker's ID and every
// worker's data-plane address. It then runs the master loop Run uses, and
// finally collects the values and each worker's traffic counters and
// metrics into the Result. spec names the graph and program the workers
// rebuild (Work); g and prog are the coordinator's own copies, and
// spec.Partitioner names cfg's partitioner.
func Coordinate[V, M any](ln net.Listener, g *graph.Graph, prog model.Program[V, M], cfg Config, spec wire.Job) ([]V, Result, error) {
	reg := cfg.Metrics
	cfg = cfg.withDefaults()
	if err := cfg.validateProcesses(); err != nil {
		return nil, Result{}, err
	}
	job := cfg.job(spec)
	cfg, err := jobConfig(job)
	if err != nil {
		return nil, Result{}, err
	}
	cfg.Metrics = reg
	r, classes := newRunner(g, prog, cfg)
	res := Result{Partitions: r.pm.P, Partition: r.quality(classes)}
	quit := make(chan struct{})
	defer func() {
		close(quit)
		for _, l := range r.links {
			l.conn.c.Close()
		}
	}()
	if err := r.admit(ln, job, quit); err != nil {
		return nil, Result{}, err
	}
	start := time.Now()
	if err := r.supersteps(&res, 0); err != nil {
		return nil, Result{}, err
	}
	res.ComputeTime = time.Since(start)

	for i, l := range r.links {
		if err := l.conn.send(cluster.FrameFinish, -1, i, nil); err != nil {
			return nil, Result{}, fmt.Errorf("engine: finish to worker %d: %w", i, err)
		}
	}
	codec := wire.AutoMsgCodec[V]()
	for range r.links {
		m := <-r.inbox
		if m.err == nil && m.f.Type != cluster.FrameValues {
			m.err = fmt.Errorf("expected values, got frame 0x%02x", m.f.Type)
		}
		var vals []V
		var rep wire.Report
		if m.err == nil {
			vals, rep, m.err = wire.DecodeValues(codec, m.f.Payload)
		}
		owned := r.pm.VerticesOfWorker(m.from)
		if m.err == nil && len(vals) != len(owned) {
			m.err = fmt.Errorf("%d values for %d vertices", len(vals), len(owned))
		}
		if m.err != nil {
			return nil, Result{}, fmt.Errorf("engine: worker %d values: %w", m.from, m.err)
		}
		for i, v := range owned {
			r.values[v] = vals[i]
		}
		res.Net = res.Net.Add(rep.Net)
		res.ForkSends += rep.Metrics.Get(metrics.ForkGrants)
		res.TokenSends += rep.Metrics.Get(metrics.TokenSends)
		r.reg.Merge(rep.Metrics)
	}
	res.Executions = r.executions.Load()
	res.Metrics = r.reg.Snapshot()
	return r.values, res, nil
}

// admit accepts the worker processes and sends them the job, then starts
// one pump per link into r.inbox.
func (r *runner[V, M]) admit(ln net.Listener, job wire.Job, quit <-chan struct{}) error {
	addrs := make([]string, r.cfg.Workers)
	for i := range addrs {
		c, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("engine: accept worker %d: %w", i, err)
		}
		l := &link{conn: newCtrlConn(c)}
		r.links = append(r.links, l)
		p, err := l.conn.recv(cluster.FrameHello)
		var h wire.Hello
		if err == nil {
			h, err = wire.DecodeHello(p)
		}
		if err == nil && h.Version != cluster.ProtocolVersion {
			err = fmt.Errorf("speaks protocol %d, want %d", h.Version, cluster.ProtocolVersion)
		}
		if err != nil {
			return fmt.Errorf("engine: worker %d hello: %w", i, err)
		}
		addrs[i] = h.Addr
	}
	r.inbox = make(chan ctrlMsg, len(r.links))
	for i, l := range r.links {
		j := job
		j.You, j.Peers = int32(i), addrs
		if err := l.conn.send(cluster.FrameJob, -1, i, wire.AppendJob(nil, j)); err != nil {
			return fmt.Errorf("engine: job to worker %d: %w", i, err)
		}
		go l.conn.pump(i, r.inbox, quit)
	}
	return nil
}

// startLinks dispatches superstep s to every worker process with the
// merged aggregates of s-1.
func (r *runner[V, M]) startLinks(s int) error {
	if r.links == nil {
		return nil
	}
	keys, vals := sortedAggs(r.aggPrev)
	start := wire.AppendStepStart(nil, wire.StepStart{Superstep: int32(s), AggKeys: keys, AggVals: vals})
	for i, l := range r.links {
		if err := l.conn.send(cluster.FrameStepStart, -1, i, start); err != nil {
			return fmt.Errorf("engine: superstep %d start to worker %d: %w", s, i, err)
		}
	}
	return nil
}

// collectLinks waits for every worker process's StepDone for superstep s.
// It fails on the first worker that breaks off, whichever it is: the
// coordinator then closes every link, which is how the other workers
// learn that the run is over.
func (r *runner[V, M]) collectLinks(s int) error {
	for range r.links {
		m := <-r.inbox
		if m.err == nil && m.f.Type != cluster.FrameStepDone {
			m.err = fmt.Errorf("expected step-done, got frame 0x%02x", m.f.Type)
		}
		var done wire.StepDone
		if m.err == nil {
			done, m.err = wire.DecodeStepDone(m.f.Payload)
		}
		if m.err == nil && int(done.Superstep) != s {
			m.err = fmt.Errorf("reported superstep %d", done.Superstep)
		}
		if m.err != nil {
			return fmt.Errorf("engine: worker %d, superstep %d: %w", m.from, s, m.err)
		}
		l := r.links[m.from]
		l.done, l.finish = done, time.Now()
		r.executions.Add(done.Executions)
	}
	return nil
}

// Session is a worker process's place in a multi-process run: its
// connection to the coordinator, its data-plane listener, and the job.
type Session struct {
	Job  wire.Job
	conn *ctrlConn
	ln   net.Listener
}

// Join dials the coordinator at addr, retrying for cluster.SetupTimeout so
// processes may start in any order, and receives the job. The caller
// rebuilds the job's graph and program and runs them with Work; it closes
// the session either way.
func Join(addr string) (*Session, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("engine: data-plane listen: %w", err)
	}
	c, err := cluster.DialRetry(addr, cluster.SetupTimeout)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("engine: join %s: %w", addr, err)
	}
	s := &Session{conn: newCtrlConn(c), ln: ln}
	hello := wire.Hello{Version: cluster.ProtocolVersion, Addr: ln.Addr().String()}
	err = s.conn.send(cluster.FrameHello, -1, -1, wire.AppendHello(nil, hello))
	var p []byte
	if err == nil {
		p, err = s.conn.recv(cluster.FrameJob)
	}
	if err == nil {
		s.Job, err = wire.DecodeJob(p)
	}
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("engine: join %s: %w", addr, err)
	}
	return s, nil
}

// Close releases the session's connections.
func (s *Session) Close() {
	s.conn.c.Close()
	s.ln.Close()
}

// Work runs the session's job as worker s.Job.You; g and prog must be the
// job's graph and program. It returns after shipping the worker's values
// and report at the coordinator's Finish, or with the first error that
// broke the run.
func Work[V, M any](s *Session, g *graph.Graph, prog model.Program[V, M]) error {
	cfg, err := jobConfig(s.Job)
	if err != nil {
		return err
	}
	r, classes := newRunner(g, prog, cfg)
	r.coord = s.conn
	me := int(s.Job.You)
	tcp, err := cluster.NewTCPPeer(me, s.ln, s.Job.Peers, cluster.LatencyModel{}, codecFor(prog))
	if err != nil {
		return err
	}
	tcp.SetMetrics(r.reg)
	r.host(tcp, me, me+1, classes)
	tcp.Start()
	if err = r.serve(tcp); err != nil {
		tcp.Fail(err)
	}
	tcp.Close()
	return err
}

// serve runs the worker process's side of the master loop: one superstep
// per StepStart until Finish.
func (r *runner[V, M]) serve(tcp *cluster.TCP) error {
	w := r.workers[0]
	frames := make(chan ctrlMsg)
	quit := make(chan struct{})
	defer close(quit)
	go r.coord.pump(-1, frames, quit)
	go w.loop()
	defer r.shutdownWorkers()
	for {
		var m ctrlMsg
		select {
		case m = <-frames:
		case <-tcp.Failed():
			return tcp.Err()
		}
		if m.err != nil {
			return fmt.Errorf("engine: worker %d lost its coordinator: %w", w.id, m.err)
		}
		switch m.f.Type {
		case cluster.FrameStepStart:
			ss, err := wire.DecodeStepStart(m.f.Payload)
			if err != nil {
				return fmt.Errorf("engine: worker %d step start: %w", w.id, err)
			}
			if err := r.step(w, ss, frames, tcp); err != nil {
				return err
			}
		case cluster.FrameFinish:
			return r.report(tcp)
		default:
			return fmt.Errorf("engine: worker %d: unexpected control frame 0x%02x", w.id, m.f.Type)
		}
	}
}

// step runs one superstep on w, the worker this process hosts, and
// reports it. runSuperstep ends with the flush-marker barrier, after which
// every peer's data for the superstep has been delivered here, so the
// stores swap before the StepDone counts pending messages.
func (r *runner[V, M]) step(w *worker[V, M], ss wire.StepStart, frames <-chan ctrlMsg, tcp *cluster.TCP) error {
	w.aggPrev = aggMap(ss.AggKeys, ss.AggVals)
	before := r.executions.Load()
	w.startCh <- int(ss.Superstep)
	select {
	case <-w.doneCh:
	case m := <-frames:
		// The coordinator says nothing mid-superstep unless its link broke.
		r.abort()
		<-w.doneCh
		if m.err == nil {
			m.err = fmt.Errorf("unexpected control frame 0x%02x", m.f.Type)
		}
		return fmt.Errorf("engine: worker %d lost its coordinator: %w", w.id, m.err)
	case <-tcp.Failed():
		r.abort()
		<-w.doneCh
	}
	if err := tcp.Err(); err != nil {
		return err
	}
	if len(w.mutAdds)+len(w.mutRemoves) > 0 {
		return errors.New("engine: multi-process runs do not support AddEdgeRequest/RemoveEdgeRequest: the master cannot rebuild the graph in worker processes")
	}
	if err := r.swapStores(); err != nil {
		return err
	}
	keys, vals := sortedAggs(w.aggLocal)
	w.aggLocal = make(map[string]float64)
	done := wire.StepDone{
		Superstep: ss.Superstep, Unhalted: w.unhalted.Load(), Pending: w.pendingMessages(),
		Executions: r.executions.Load() - before, AggKeys: keys, AggVals: vals,
	}
	return r.coord.send(cluster.FrameStepDone, w.id, -1, wire.AppendStepDone(nil, done))
}

// report ships the worker's values and run totals after the last
// superstep. The transport closes first: its writers account wire bytes
// until they exit, and its pumps until every peer has closed.
func (r *runner[V, M]) report(tcp *cluster.TCP) error {
	w := r.workers[0]
	tcp.Close()
	if err := tcp.Err(); err != nil {
		return err
	}
	vals := make([]V, len(w.owned))
	for i, v := range w.owned {
		vals[i] = r.values[v]
	}
	rep := wire.Report{Net: tcp.Stats().Load(), Metrics: r.reg.Snapshot()}
	return r.coord.send(cluster.FrameValues, w.id, -1, wire.AppendValues(nil, wire.AutoMsgCodec[V](), vals, rep))
}

// sortedAggs flattens an aggregator map into sorted parallel slices so
// the frames are deterministic.
func sortedAggs(m map[string]float64) ([]string, []float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	vals := make([]float64, len(keys))
	for i, k := range keys {
		vals[i] = m[k]
	}
	return keys, vals
}

func aggMap(keys []string, vals []float64) map[string]float64 {
	m := make(map[string]float64, len(keys))
	for i, k := range keys {
		m[k] = vals[i]
	}
	return m
}
