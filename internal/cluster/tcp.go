package cluster

// tcp.go is the real-socket transport backend. It keeps the exact
// delivery semantics of the Mem simulator — per-pair FIFO, never-blocking
// Send, inflight accounting for WaitIdle, Kill/Revive drop rules, fault
// hook fidelity — but moves every message through a TCP connection as
// encoded frames. The same lane code serves two shapes: NewTCPLoopback
// hosts every worker of a run in one process, NewTCPPeer hosts one
// worker whose peers are other processes.
//
//
//   - one persistent connection per ordered (sender, receiver) pair,
//     including self-pairs, so a lane is exactly a socket and TCP's
//     byte-stream ordering is the FIFO guarantee;
//   - a writer goroutine per connection that drains its queue into a
//     buffered writer and flushes only when the queue runs empty (write
//     coalescing: bursts of batches share one syscall);
//   - a read pump per connection that decodes frames sequentially and
//     invokes the receiver's handler, preserving send order;
//   - connection setup with capped-backoff dial retry, and clean
//     shutdown via write-side close so pumps drain to EOF;
//   - failure as an error, never a panic or a hang: a frame that does not
//     decode, a stream cut mid-frame or a failed write fails the
//     transport (Err, Failed) and wakes WaitIdle.
//
// Fault injection maps onto the wire: Fate.Duplicates writes the frame
// again (two real frames cross the socket), Fate.DropDelivery sets
// FlagWireLost so the frame crosses the wire and is discarded on arrival,
// and Fate.Delay rides in the frame header and is slept in the read pump
// (head-of-line, matching a Mem lane). The simulated Message.Bytes ledger
// is carried in the frame header and counted exactly as Mem counts it, so
// every conservation contract holds unchanged; true encoded bytes are
// reported separately in Stats.WireBytesSent/WireBytesReceived.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"serialgraph/internal/metrics"
)

// tcpLane is the sender side of one ordered-pair connection.
type tcpLane struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      []tcpQueued
	closed bool
	conn   net.Conn
}

// tcpInbound is the receiver side of one ordered-pair connection.
type tcpInbound struct {
	br       *bufio.Reader
	conn     net.Conn
	from, to WorkerID
}

type tcpQueued struct {
	msg      Message
	delay    time.Duration
	wireLost bool
}

// TCP is the socket transport backend. One TCP value hosts the lanes of
// one or more workers: NewTCPLoopback hosts every worker of a run in one
// process, NewTCPPeer hosts a single worker whose peers are other
// processes.
type TCP struct {
	n        int
	latency  LatencyModel
	codec    PayloadCodec
	handlers []Handler
	stats    Stats
	dead     []atomic.Bool
	hook     FaultHook
	flow     *Flow // optional credit windows; nil when flow control is off
	reg      atomic.Pointer[metrics.Registry]

	inflightMu sync.Mutex
	inflight   int
	idleCond   *sync.Cond
	err        error         // first lane failure, under inflightMu
	failed     chan struct{} // closed on the first lane failure

	listeners []net.Listener
	lanes     []*tcpLane // n*n, index from*n+to; only hosted senders' lanes get a conn
	connMu    sync.Mutex
	inbound   []tcpInbound // connected inbound lanes whose pumps Start launches

	wg     sync.WaitGroup
	closed atomic.Bool
}

var _ Transport = (*TCP)(nil)

// SetupTimeout bounds connection establishment: dials retry inside it, so
// processes may start in any order, and a peer that never connects fails
// the setup instead of wedging it.
const SetupTimeout = 10 * time.Second

// DialRetry dials addr with exponential backoff capped at 250ms until it
// connects or the overall timeout elapses.
func DialRetry(addr string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	backoff := time.Millisecond
	for {
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("cluster: dial %s: %w", addr, err)
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > 250*time.Millisecond {
			backoff = 250 * time.Millisecond
		}
	}
}

// helloPayload encodes the connection-opening handshake: protocol
// version, then the dialing lane's (from, to) pair so the accepting side
// can route the connection.
func helloPayload(from, to WorkerID) []byte {
	p := AppendZigzag(nil, ProtocolVersion)
	p = AppendZigzag(p, int64(from))
	p = AppendZigzag(p, int64(to))
	return p
}

func parseHello(f Frame) (from, to WorkerID, err error) {
	if f.Type != FrameHello {
		return 0, 0, fmt.Errorf("cluster: expected hello frame, got type 0x%02x", f.Type)
	}
	b := f.Payload
	ver, n := Zigzag(b)
	if n <= 0 {
		return 0, 0, ErrFrameCorrupt
	}
	b = b[n:]
	if ver != ProtocolVersion {
		return 0, 0, fmt.Errorf("cluster: protocol version mismatch: peer %d, local %d", ver, ProtocolVersion)
	}
	fr, n := Zigzag(b)
	if n <= 0 {
		return 0, 0, ErrFrameCorrupt
	}
	b = b[n:]
	t, n := Zigzag(b)
	if n <= 0 {
		return 0, 0, ErrFrameCorrupt
	}
	return WorkerID(fr), WorkerID(t), nil
}

func newTCP(n int, latency LatencyModel, codec PayloadCodec) *TCP {
	if n < 1 {
		panic("cluster: need at least one worker")
	}
	if codec == nil {
		panic("cluster: TCP transport needs a payload codec")
	}
	t := &TCP{
		n:        n,
		latency:  latency,
		codec:    codec,
		handlers: make([]Handler, n),
		dead:     make([]atomic.Bool, n),
		lanes:    make([]*tcpLane, n*n),
		failed:   make(chan struct{}),
	}
	t.idleCond = sync.NewCond(&t.inflightMu)
	for i := range t.lanes {
		l := &tcpLane{}
		l.cond = sync.NewCond(&l.mu)
		t.lanes[i] = l
	}
	return t
}

// NewTCPLoopback creates a TCP transport for n workers, all inside this
// process, connected over 127.0.0.1 sockets. codec encodes and decodes
// frame payloads (the engine passes wire.NewCodec for its message type).
// The latency model is recorded (Latency returns it) but not enforced:
// the real wire provides the timing.
func NewTCPLoopback(n int, latency LatencyModel, codec PayloadCodec) (*TCP, error) {
	t := newTCP(n, latency, codec)
	addrs := make([]string, n)
	for w := 0; w < n; w++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.teardown()
			return nil, fmt.Errorf("cluster: listen for worker %d: %w", w, err)
		}
		t.listeners = append(t.listeners, ln)
		addrs[w] = ln.Addr().String()
	}
	errs := make([]error, n)
	var setup sync.WaitGroup
	for w := 0; w < n; w++ {
		setup.Add(1)
		go func() {
			defer setup.Done()
			errs[w] = t.connect(w, t.listeners[w], addrs)
		}()
	}
	setup.Wait()
	if err := errors.Join(errs...); err != nil {
		t.teardown()
		return nil, err
	}
	t.Start()
	return t, nil
}

// NewTCPPeer creates the transport of worker me in a run of len(peers)
// workers, each in its own process: ln is me's listener, and peers[w] is
// worker w's listen address (peers[me] is ln's own). Every other process
// must call NewTCPPeer for its worker concurrently; the call returns once
// all of me's inbound and outbound lanes are connected, or fails after
// SetupTimeout. Traffic between lanes of different processes keeps every
// per-lane guarantee of the loopback backend; WaitIdle and InFlight,
// which count messages in this process only, are not meaningful, and
// cross-process barriers are built from flush markers instead
// (Endpoint.Barrier).
func NewTCPPeer(me int, ln net.Listener, peers []string, latency LatencyModel, codec PayloadCodec) (*TCP, error) {
	if me < 0 || me >= len(peers) {
		return nil, fmt.Errorf("cluster: worker %d outside a %d-worker peer list", me, len(peers))
	}
	t := newTCP(len(peers), latency, codec)
	if err := t.connect(me, ln, peers); err != nil {
		t.teardown()
		return nil, err
	}
	return t, nil
}

// connect hosts worker w's lanes: it accepts one connection per sender
// (w itself included) on ln, routing each by the hello its dialer writes
// first, and dials every worker's address in addrs for w's outbound lanes.
func (t *TCP) connect(w int, ln net.Listener, addrs []string) error {
	deadline := time.Now().Add(SetupTimeout)
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
		defer tl.SetDeadline(time.Time{})
	}
	errs := make([]error, t.n+1)
	var setup sync.WaitGroup
	setup.Add(1)
	go func() {
		defer setup.Done()
		seen := make([]bool, t.n)
		for k := 0; k < t.n; k++ {
			conn, err := ln.Accept()
			if err != nil {
				errs[t.n] = fmt.Errorf("cluster: worker %d accept: %w", w, err)
				return
			}
			conn.SetReadDeadline(deadline)
			br := bufio.NewReaderSize(conn, 64<<10)
			f, _, err := ReadFrame(br)
			var from, to WorkerID
			if err == nil {
				from, to, err = parseHello(f)
			}
			if err == nil && (int(to) != w || from < 0 || int(from) >= t.n || seen[from]) {
				err = fmt.Errorf("cluster: misrouted hello %d->%d at worker %d", from, to, w)
			}
			if err != nil {
				conn.Close()
				errs[t.n] = fmt.Errorf("cluster: worker %d handshake: %w", w, err)
				return
			}
			seen[from] = true
			conn.SetReadDeadline(time.Time{})
			t.connMu.Lock()
			t.inbound = append(t.inbound, tcpInbound{br, conn, from, to})
			t.connMu.Unlock()
		}
	}()
	for to := 0; to < t.n; to++ {
		setup.Add(1)
		go func() {
			defer setup.Done()
			conn, err := DialRetry(addrs[to], time.Until(deadline))
			if err == nil {
				hello := AppendFrame(nil, &Frame{
					Type: FrameHello, From: WorkerID(w), To: WorkerID(to),
					Payload: helloPayload(WorkerID(w), WorkerID(to)),
				})
				if _, err = conn.Write(hello); err != nil {
					conn.Close()
				}
			}
			if err != nil {
				errs[to] = err
				return
			}
			t.lanes[w*t.n+to].conn = conn
		}()
	}
	setup.Wait()
	return errors.Join(errs...)
}

// Start starts moving traffic: one read pump per inbound lane and one
// writer per outbound lane. NewTCPLoopback starts its transport itself;
// a NewTCPPeer transport must be started once its handlers are
// registered, since peers may already be sending.
func (t *TCP) Start() {
	for _, in := range t.inbound {
		t.wg.Add(1)
		go t.pump(in.br, in.conn, in.from, in.to)
	}
	for _, l := range t.lanes {
		if l.conn != nil {
			t.wg.Add(1)
			go t.writer(l)
		}
	}
}

// teardown releases sockets after a failed construction or a failed run,
// so every pump and writer unblocks.
func (t *TCP) teardown() {
	for _, ln := range t.listeners {
		ln.Close()
	}
	for _, l := range t.lanes {
		if l.conn != nil {
			l.conn.Close()
		}
	}
	t.connMu.Lock()
	for _, in := range t.inbound {
		in.conn.Close()
	}
	t.connMu.Unlock()
}

// Fail records the first lane failure: a frame that does not decode, a
// socket error in the middle of the stream, or a write that does not go
// through. The run cannot go on without the lost traffic, so every waiter
// is woken instead: WaitIdle returns, Failed is closed and Err reports the
// cause, and Close tears the sockets down instead of draining them. The
// engine also calls it when a worker process loses its coordinator.
func (t *TCP) Fail(err error) {
	t.inflightMu.Lock()
	if t.err == nil {
		t.err = err
		close(t.failed)
	}
	t.idleCond.Broadcast()
	t.inflightMu.Unlock()
}

// Failed is closed when a lane fails.
func (t *TCP) Failed() <-chan struct{} { return t.failed }

// Err returns the first lane failure, or nil.
func (t *TCP) Err() error {
	t.inflightMu.Lock()
	defer t.inflightMu.Unlock()
	return t.err
}

// SetMetrics points the transport at a metrics registry; the writer and
// pump goroutines then record wire_encode_ns / wire_decode_ns /
// wire_flush_ns phase time. Call it before traffic flows.
func (t *TCP) SetMetrics(reg *metrics.Registry) { t.reg.Store(reg) }

// NumWorkers returns the cluster size.
func (t *TCP) NumWorkers() int { return t.n }

// Latency returns the configured (reported, not enforced) latency model.
func (t *TCP) Latency() LatencyModel { return t.latency }

// Stats returns the traffic counters.
func (t *TCP) Stats() *Stats { return &t.stats }

// RegisterHandler installs the delivery callback for worker w.
func (t *TCP) RegisterHandler(w WorkerID, h Handler) {
	if t.handlers[w] != nil {
		panic(fmt.Sprintf("cluster: handler for worker %d registered twice", w))
	}
	t.handlers[w] = h
}

// SetFaultHook installs a fault-injection hook. It must be called before
// any traffic flows.
func (t *TCP) SetFaultHook(h FaultHook) { t.hook = h }

// SetFlow attaches the credit windows senders acquired against and arms
// the credit protocol: for every data frame a pump consumes it sends a
// Credit frame back on the reverse lane, and receiving a Credit frame
// releases the original sender's window. Must be set before any traffic
// flows.
func (t *TCP) SetFlow(f *Flow) { t.flow = f }

// releaseCredit returns m's window bytes directly for a data message
// dropped on the sender's side, before any frame crossed the wire.
func (t *TCP) releaseCredit(m Message) {
	if m.Kind == Data {
		t.flow.Release(m.From, m.To, m.Bytes)
	}
}

// Kill marks worker w as crashed; see (*Mem).Kill for the semantics.
func (t *TCP) Kill(w WorkerID) { t.dead[w].Store(true) }

// Revive clears worker w's crash flag.
func (t *TCP) Revive(w WorkerID) { t.dead[w].Store(false) }

// Alive reports whether worker w is not currently killed.
func (t *TCP) Alive(w WorkerID) bool { return !t.dead[w].Load() }

// DeadWorkers returns the IDs of all currently killed workers.
func (t *TCP) DeadWorkers() []WorkerID {
	var dead []WorkerID
	for w := range t.dead {
		if t.dead[w].Load() {
			dead = append(dead, WorkerID(w))
		}
	}
	return dead
}

// Send enqueues m for transmission. Semantics match (*Mem).Send exactly:
// it never blocks, and sends after Close, data sends touching a killed
// worker, and hook-dropped sends are discarded and counted.
func (t *TCP) Send(m Message) {
	if m.From < 0 || int(m.From) >= t.n || m.To < 0 || int(m.To) >= t.n {
		panic(fmt.Sprintf("cluster: bad endpoints %d->%d", m.From, m.To))
	}
	if t.closed.Load() {
		t.stats.DroppedMessages.Add(1)
		t.releaseCredit(m)
		return
	}
	if m.Kind == Data && (t.dead[m.From].Load() || t.dead[m.To].Load()) {
		t.stats.DroppedMessages.Add(1)
		t.releaseCredit(m)
		return
	}
	var fate Fate
	if t.hook != nil {
		fate = t.hook.OnSend(m)
		if fate.Drop {
			t.stats.DroppedMessages.Add(1)
			t.releaseCredit(m)
			return
		}
	}
	for c := 0; c <= fate.Duplicates; c++ {
		t.enqueue(m, fate.Delay, fate.DropDelivery)
	}
}

// enqueue places one copy of m on its lane's write queue, counting it as
// traffic, or counts a drop if the lane is already closed. The closed
// check runs under the lane lock so a Send racing Close can never strand
// an in-flight count after the writer exits.
func (t *TCP) enqueue(m Message, extraDelay time.Duration, wireLost bool) {
	l := t.lanes[int(m.From)*t.n+int(m.To)]
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		t.stats.DroppedMessages.Add(1)
		t.releaseCredit(m)
		return
	}
	switch m.Kind {
	case Data:
		t.stats.DataMessages.Add(1)
		t.stats.DataBytes.Add(int64(m.Bytes))
	case Control:
		t.stats.ControlMessages.Add(1)
		t.stats.ControlBytes.Add(int64(m.Bytes))
	case Ack:
		t.stats.AckMessages.Add(1)
	}
	t.inflightMu.Lock()
	t.inflight++
	t.inflightMu.Unlock()
	l.q = append(l.q, tcpQueued{m, extraDelay, wireLost})
	l.cond.Signal()
	l.mu.Unlock()
}

// enqueueCredit queues a Credit frame returning bytes of window from
// granter (the worker whose pump consumed a data frame) back to sender.
// Credit is transport-level traffic: it rides a real frame on the
// (granter, sender) lane — so WireBytesSent/Received stay a balanced
// ledger — but is invisible to the per-kind message counters and the
// drop ledger, which the engine's conservation checks pin exactly. It
// does count as in flight, so WaitIdle cannot return while a grant (and
// therefore a window imbalance) is still on the wire. If the reverse
// lane is already closed the window is released directly: the run is
// tearing down and the sender must still be unblocked.
func (t *TCP) enqueueCredit(granter, sender WorkerID, bytes int) {
	l := t.lanes[int(granter)*t.n+int(sender)]
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		t.flow.Release(sender, granter, bytes)
		return
	}
	t.inflightMu.Lock()
	t.inflight++
	t.inflightMu.Unlock()
	l.q = append(l.q, tcpQueued{msg: Message{
		From: granter, To: sender, Kind: Control,
		Payload: CreditGrant{Bytes: int64(bytes)},
	}})
	l.cond.Signal()
	l.mu.Unlock()
}

// writer drains one lane's queue onto its socket. Frames queued while a
// previous burst was being written are encoded into the same buffered
// writer and flushed together — the write-coalescing path. A payload the
// codec cannot encode or a socket that stops taking bytes fails the
// transport and ends the writer.
func (t *TCP) writer(l *tcpLane) {
	defer t.wg.Done()
	bw := bufio.NewWriterSize(l.conn, 64<<10)
	var buf []byte
	for {
		l.mu.Lock()
		for len(l.q) == 0 && !l.closed {
			l.cond.Wait()
		}
		if len(l.q) == 0 && l.closed {
			l.mu.Unlock()
			break
		}
		batch := l.q
		l.q = nil
		l.mu.Unlock()

		reg := t.reg.Load()
		start := time.Now()
		buf = buf[:0]
		for i := range batch {
			q := &batch[i]
			f := Frame{
				Type: 0, From: q.msg.From, To: q.msg.To,
				Declared: q.msg.Bytes, Delay: q.delay,
			}
			if q.wireLost {
				f.Flags |= FlagWireLost
			}
			ftype, payload, err := t.codec.EncodePayload(q.msg.Payload, nil)
			if err != nil {
				t.Fail(fmt.Errorf("cluster: cannot encode %d->%d payload: %w", q.msg.From, q.msg.To, err))
				l.conn.Close()
				return
			}
			f.Type = ftype
			f.Payload = payload
			buf = AppendFrame(buf, &f)
		}
		if reg != nil {
			reg.AddPhase(metrics.PhaseWireEncode, time.Since(start))
		}
		// Counted before the write so a receiver that races ahead can
		// never observe received > sent.
		t.stats.WireBytesSent.Add(int64(len(buf)))
		flushStart := time.Now()
		_, err := bw.Write(buf)
		// Coalesce: only pay the flush syscall when the queue ran dry.
		l.mu.Lock()
		empty := len(l.q) == 0
		l.mu.Unlock()
		if err == nil && empty {
			err = bw.Flush()
		}
		if err != nil {
			t.Fail(fmt.Errorf("cluster: lane %d->%d write: %w", batch[0].msg.From, batch[0].msg.To, err))
			l.conn.Close()
			return
		}
		if reg != nil {
			reg.AddPhase(metrics.PhaseWireFlush, time.Since(flushStart))
		}
	}
	bw.Flush()
	if tc, ok := l.conn.(*net.TCPConn); ok {
		tc.CloseWrite() // EOF to the peer's read pump once drained
	} else {
		l.conn.Close()
	}
}

// pump is the read side of the (from, to) lane: it decodes frames in
// stream order and delivers them, mirroring a Mem lane's deliver goroutine
// (including head-of-line straggler sleeps and wire-loss drops). EOF at a
// frame boundary is the sender's clean close; a frame that does not decode
// or a stream that breaks mid-frame fails the transport.
func (t *TCP) pump(br *bufio.Reader, conn net.Conn, from, to WorkerID) {
	defer t.wg.Done()
	defer conn.Close()
	for {
		f, wireBytes, err := ReadFrame(br)
		if err != nil {
			if err != io.EOF && !(t.closed.Load() && errors.Is(err, net.ErrClosed)) {
				t.Fail(fmt.Errorf("cluster: lane %d->%d read: %w", from, to, err))
			}
			return
		}
		t.stats.WireBytesReceived.Add(int64(wireBytes))
		if f.Type == FrameCredit {
			// Transport-level credit return: release the original data
			// sender's (to → from) window and consume the frame here — it
			// never reaches a handler or the per-kind ledger.
			n, k := binary.Uvarint(f.Payload)
			if k <= 0 {
				t.Fail(fmt.Errorf("cluster: corrupt credit frame on lane %d->%d", from, to))
				return
			}
			t.flow.Release(to, from, int(n))
			t.doneInFlight()
			continue
		}
		reg := t.reg.Load()
		start := time.Now()
		payload, err := t.codec.DecodePayload(f.Type, f.Payload)
		if err != nil {
			t.Fail(fmt.Errorf("cluster: corrupt frame type 0x%02x on lane %d->%d: %w", f.Type, from, to, err))
			return
		}
		if reg != nil {
			reg.AddPhase(metrics.PhaseWireDecode, time.Since(start))
		}
		// The lane, not the frame header, names the endpoints: a header
		// cannot route a message to a handler its connection does not feed.
		m := Message{From: from, To: to, Kind: KindOfFrame(f.Type), Bytes: f.Declared, Payload: payload}
		if f.Delay > 0 {
			time.Sleep(f.Delay)
		}
		if f.Flags&FlagWireLost != 0 || (m.Kind == Data && t.dead[m.To].Load()) {
			t.stats.DroppedMessages.Add(1)
		} else {
			if h := t.handlers[m.To]; h != nil {
				h(m)
			}
			if t.hook != nil {
				t.hook.OnDeliver(m)
			}
		}
		// The frame crossed the wire and is consumed either way
		// (delivered or lost): return its window. The grant is queued
		// before this frame's in-flight count drops, so WaitIdle holds
		// until the credit lands and the windows balance.
		if m.Kind == Data && t.flow != nil {
			t.enqueueCredit(m.To, m.From, m.Bytes)
		}
		t.doneInFlight()
	}
}

// doneInFlight retires one in-flight message.
func (t *TCP) doneInFlight() {
	t.inflightMu.Lock()
	t.inflight--
	if t.inflight == 0 {
		t.idleCond.Broadcast()
	}
	t.inflightMu.Unlock()
}

// WaitIdle blocks until no messages are in flight anywhere: queued,
// buffered in a socket, or mid-delivery. It returns early once a lane has
// failed (see Err): the lost frames will never retire.
func (t *TCP) WaitIdle() {
	t.inflightMu.Lock()
	for t.inflight > 0 && t.err == nil {
		t.idleCond.Wait()
	}
	t.inflightMu.Unlock()
}

// InFlight returns the number of undelivered messages.
func (t *TCP) InFlight() int {
	t.inflightMu.Lock()
	defer t.inflightMu.Unlock()
	return t.inflight
}

// Close drains all lanes and shuts the sockets down. Writers flush their
// queues and close the write side; read pumps consume to EOF, so every
// accepted message is delivered (or counted dropped) before Close
// returns. After a failure (Err) it tears the sockets down instead of
// draining them. Sends after Close are dropped and counted.
func (t *TCP) Close() {
	if !t.closed.CompareAndSwap(false, true) {
		return
	}
	for _, l := range t.lanes {
		l.mu.Lock()
		l.closed = true
		l.cond.Signal()
		l.mu.Unlock()
	}
	if t.Err() != nil {
		t.teardown()
	}
	t.wg.Wait()
	t.teardown()
}
