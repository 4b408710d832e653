package cluster

import (
	"sync"
	"sync/atomic"
)

// Simulated wire sizes (bytes). Data batches additionally count their
// entries' payload bytes.
const (
	CtrlBytes        = 64 // a fork, token, or other control message
	CtrlEntryBytes   = 9  // each fork or token after a control frame's first
	AckBytes         = 16
	FlushMarkerBytes = 16
	BatchHeaderBytes = 32
	EntryHeaderBytes = 8 // per vertex-message destination ID
)

// FlushMarker is the control payload of the flush-with-ack protocol: a
// worker that wants proof its earlier data messages have been applied
// sends one and waits for the matching AckMsg. Exported so wire codecs
// can encode it; engines interact with it only through FlushWait.
type FlushMarker struct{ Seq uint64 }

// AckMsg acknowledges the FlushMarker with the same sequence number.
type AckMsg struct{ Seq uint64 }

// Endpoint is a worker's connection to the transport. It dispatches
// incoming traffic to data/control callbacks and implements the
// flush-with-ack protocol used before token handoffs: because lanes are
// FIFO, an acked flush marker guarantees every earlier data message to that
// worker has been delivered and applied.
type Endpoint struct {
	t     Transport
	id    WorkerID
	dirty []atomic.Bool // dirty[w]: data sent to worker w since the last flush to it

	onData func(from WorkerID, payload any)
	onCtrl func(from WorkerID, payload any)

	flow *Flow // optional credit windows; nil-safe

	nextSeq atomic.Uint64
	mu      sync.Mutex
	acks    map[uint64]chan struct{}
	abortCh chan struct{} // closed by Abort; replaced by ResetAbort
	marks   int           // flush markers received and not yet consumed by Barrier
	marked  *sync.Cond    // on mu; signalled per marker and by Abort
}

// NewEndpoint registers worker id on t. onData receives Data payloads,
// onCtrl receives Control payloads; both run on transport delivery
// goroutines and must not block indefinitely.
func NewEndpoint(t Transport, id WorkerID, onData, onCtrl func(from WorkerID, payload any)) *Endpoint {
	e := &Endpoint{t: t, id: id, dirty: make([]atomic.Bool, t.NumWorkers()), onData: onData, onCtrl: onCtrl, acks: make(map[uint64]chan struct{}), abortCh: make(chan struct{})}
	e.marked = sync.NewCond(&e.mu)
	t.RegisterHandler(id, e.handle)
	return e
}

func (e *Endpoint) handle(m Message) {
	switch p := m.Payload.(type) {
	case FlushMarker:
		e.t.Send(Message{From: e.id, To: m.From, Kind: Ack, Bytes: AckBytes, Payload: AckMsg{p.Seq}})
		e.mu.Lock()
		e.marks++
		e.marked.Signal()
		e.mu.Unlock()
	case AckMsg:
		e.mu.Lock()
		ch := e.acks[p.Seq]
		delete(e.acks, p.Seq)
		e.mu.Unlock()
		if ch != nil {
			close(ch)
		}
	default:
		switch m.Kind {
		case Data:
			if e.onData != nil {
				e.onData(m.From, m.Payload)
			}
		default:
			if e.onCtrl != nil {
				e.onCtrl(m.From, m.Payload)
			}
		}
	}
}

// SetFlow attaches per-ordered-pair credit windows: every SendData first
// acquires window bytes, blocking while the (e.id, to) window is full.
// Control traffic is never subject to flow control (it must keep moving
// so credit and acks can flow back).
func (e *Endpoint) SetFlow(f *Flow) { e.flow = f }

// SendData sends a data payload (a batch of vertex messages) of the given
// simulated size. With a Flow attached it blocks until the credit window
// to the destination admits the batch.
func (e *Endpoint) SendData(to WorkerID, payload any, bytes int) {
	e.flow.Acquire(e.id, to, bytes)
	e.t.Send(Message{From: e.id, To: to, Kind: Data, Bytes: bytes, Payload: payload})
	// Set after the send, so a flush that clears it queues its marker behind
	// this batch; loaded first, so paths that never flush write it once.
	if d := &e.dirty[to]; !d.Load() {
		d.Store(true)
	}
}

// CtrlFrameBytes is the simulated size of a control frame of n entries: a
// one-entry frame costs exactly one CtrlBytes message.
func CtrlFrameBytes(n int) int { return CtrlBytes + CtrlEntryBytes*(n-1) }

// SendCtrl sends a control payload (a frame of forks and tokens, a barrier
// vote...) of the given simulated size.
func (e *Endpoint) SendCtrl(to WorkerID, payload any, bytes int) {
	e.t.Send(Message{From: e.id, To: to, Kind: Control, Bytes: bytes, Payload: payload})
}

// FlushWait sends a flush marker to each worker in targets sent data since
// its last flush and blocks until every one has acknowledged it, ensuring
// (by lane FIFO order) that all data previously sent to targets has been
// delivered. It returns the number of markers sent, so callers can account
// the control traffic they generated.
func (e *Endpoint) FlushWait(targets []WorkerID) int {
	e.mu.Lock()
	abortCh := e.abortCh
	e.mu.Unlock()
	chans := make([]chan struct{}, 0, len(targets))
	for _, to := range targets {
		if to == e.id || !e.dirty[to].Swap(false) {
			continue
		}
		seq, ch := e.nextSeq.Add(1), make(chan struct{})
		e.mu.Lock()
		e.acks[seq] = ch
		e.mu.Unlock()
		e.t.Send(Message{From: e.id, To: to, Kind: Control, Bytes: FlushMarkerBytes, Payload: FlushMarker{seq}})
		chans = append(chans, ch)
	}
	for _, ch := range chans {
		select {
		case <-ch:
		case <-abortCh:
			// The watchdog declared the run stalled: stop waiting for acks
			// that may never come. Leftover ack registrations are swept by
			// ResetAbort during recovery.
			return len(chans)
		}
	}
	return len(chans)
}

// Barrier is the end of a superstep across processes, where no transport
// can tell that the cluster is idle. It sends a flush marker to every peer,
// waits for their acks, then waits for one marker from every peer. Lanes
// are FIFO, so when Barrier returns every message peers sent this endpoint
// before their own Barrier has been delivered, and every message this
// endpoint sent them has been delivered too. Each peer must call Barrier
// once per superstep, and nothing else may flush to this endpoint in
// between. It returns the number of markers sent.
func (e *Endpoint) Barrier(peers []WorkerID) int {
	for _, p := range peers {
		e.dirty[p].Store(true)
	}
	n := e.FlushWait(peers)
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.marks < n {
		select {
		case <-e.abortCh:
			return n
		default:
		}
		e.marked.Wait()
	}
	e.marks -= n
	return n
}

// Abort makes any current or future FlushWait stop blocking on missing
// acks. The engine's liveness watchdog calls it when a superstep stalls
// (e.g. a flush marker or its ack was lost) so the waiting worker can reach
// the barrier and recovery can run.
func (e *Endpoint) Abort() {
	e.mu.Lock()
	defer e.mu.Unlock()
	select {
	case <-e.abortCh:
	default:
		close(e.abortCh)
	}
	e.marked.Broadcast()
}

// ResetAbort re-arms an aborted endpoint and drops any ack registrations
// left over from aborted flushes. Recovery calls it at the barrier (no
// flush can be in flight) before resuming. It marks every lane dirty: an
// aborted flush may have cleared a flag whose marker was never acked.
func (e *Endpoint) ResetAbort() {
	for i := range e.dirty {
		e.dirty[i].Store(true)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.abortCh = make(chan struct{})
	clear(e.acks)
	e.marks = 0
}
