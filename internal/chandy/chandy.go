// Package chandy implements the Chandy–Misra hygienic dining philosophers
// algorithm [13], the coordination core of both vertex-based (§4.3) and
// partition-based (§5.4) distributed locking. Philosophers are identified
// by opaque int32 IDs, so the same implementation locks vertices (IDs are
// vertex IDs) or partitions (IDs are partition IDs).
//
// Each worker runs one Manager holding the state of its local philosophers.
// For every pair of neighboring philosophers there is one shared fork, one
// request token, and a clean/dirty bit, packed into a byte as §6.3
// describes. The paper keeps those bytes in a two-level hash map; here each
// philosopher holds its neighbors as a sorted slice with a parallel slice
// of state bytes, because the conflict graph is fixed for a run: a meal
// walks the bytes in order, and an arriving fork or token finds its edge by
// binary search. Export and Import keep the map form for checkpoints.
//
// Control messages leave a manager in frames: every fork and token bound
// for another worker is queued in that worker's outbox while the manager's
// lock is held, and the outboxes drain, one []Ctrl frame per destination,
// just before the lock drops. Initial placement follows the paper: the
// philosopher with the smaller ID holds the request token, the one with the
// larger ID holds the fork, dirty — making the initial precedence graph
// acyclic, which is what guarantees freedom from deadlock and starvation.
//
// The hygienic rules implemented here:
//
//   - A hungry philosopher missing a fork it holds the token for sends the
//     token to the holder (a request).
//   - A philosopher holding a dirty fork and its request token yields the
//     fork (cleaned) as soon as it is not eating, keeping the token.
//   - Clean forks are never yielded: whoever cleaned the fork has priority
//     until it eats.
//   - A philosopher eats exactly when hungry and holding all its forks;
//     eating dirties all forks.
//
// A philosopher that stops becoming hungry (a halted partition, §5.4's
// skip optimization) still yields its dirty forks on request because yields
// are driven by the manager's message handler, not the philosopher's own
// compute thread.
package chandy

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"serialgraph/internal/metrics"
)

// PhilID identifies a philosopher: a vertex ID under vertex-based locking
// or a partition ID under partition-based locking.
type PhilID int32

// Bits of the per-edge state byte (§6.3's dual-layer hash map values).
const (
	bitFork  byte = 1 << 0 // I hold the fork for this edge
	bitDirty byte = 1 << 1 // ... and it is dirty
	bitToken byte = 1 << 2 // I hold the request token for this edge
)

type philState uint8

const (
	thinking philState = iota
	hungry
	eating
)

// CtrlKind distinguishes the two control messages philosophers exchange.
type CtrlKind uint8

const (
	// TokenMsg carries a request token: "From wants the fork it shares
	// with To".
	TokenMsg CtrlKind = iota
	// ForkMsg carries the (cleaned) fork for the edge From–To.
	ForkMsg
)

// Ctrl is a control message between philosophers on different workers.
type Ctrl struct {
	Kind     CtrlKind
	From, To PhilID
}

type phil struct {
	id    PhilID
	state philState
	// nbrs holds the neighbor IDs sorted and deduplicated; edges[i] is the
	// state byte of the fork shared with nbrs[i].
	nbrs    []PhilID
	edges   []byte
	missing int           // forks still missing while hungry
	ready   chan struct{} // closed when all forks acquired
}

// slot returns the index of neighbor q in p's edge slices, panicking on an
// edge the topology does not have.
func (p *phil) slot(q PhilID, what string) int {
	i, ok := slices.BinarySearch(p.nbrs, q)
	if !ok {
		panic(fmt.Sprintf("chandy: %s for unknown edge %d-%d", what, p.id, q))
	}
	return i
}

// Stats counts the synchronization traffic generated by a manager. Remote
// counts are also visible as transport control messages; local exchanges
// never touch the network.
type Stats struct {
	ForkSends, TokenSends             int64
	RemoteForkSends, RemoteTokenSends int64
	Meals                             int64
}

// Manager coordinates the philosophers owned by one worker.
type Manager struct {
	worker    int
	ownerOf   func(PhilID) int
	sendCtrl  func(toWorker int, c Ctrl)
	sendFrame func(toWorker int, frame []Ctrl)
	// preHandoff runs just before a fork is queued for another worker; the
	// engine uses it to flush pending remote replica updates so that (by
	// per-lane FIFO delivery) condition C1 holds for the requester. The
	// fork's frame is sent later in the same critical section, so it still
	// follows the flushed data on the lane.
	preHandoff func(toWorker int)

	mu      sync.Mutex
	phils   map[PhilID]*phil
	stats   Stats
	reg     *metrics.Registry
	aborted bool

	// out[w] queues the control messages for worker w in generation order;
	// outDests lists the workers with a non-empty outbox. Both are guarded
	// by mu and emptied by unlock.
	out      [][]Ctrl
	outDests []int
}

// NewManager creates the manager for worker. ownerOf maps any philosopher
// to its worker; sendCtrl transmits one control message to a remote
// worker's manager (delivered via HandleCtrl) and is only used when no
// frame sender is installed (SetFrameSender); preHandoff (optional) runs
// before a fork leaves this worker.
func NewManager(worker int, ownerOf func(PhilID) int, sendCtrl func(toWorker int, c Ctrl), preHandoff func(toWorker int)) *Manager {
	return &Manager{
		worker: worker, ownerOf: ownerOf, sendCtrl: sendCtrl, preHandoff: preHandoff,
		phils: make(map[PhilID]*phil),
	}
}

// SetFrameSender installs the frame transmitter: every critical section
// that generated remote traffic hands each destination worker its control
// messages as one frame, in generation order, which the receiver passes to
// HandleCtrls. The frame slice is the sender's to keep. Call before any
// Acquire.
func (m *Manager) SetFrameSender(send func(toWorker int, frame []Ctrl)) { m.sendFrame = send }

// AddPhil registers a local philosopher and its neighbors (the philosophers
// it shares forks with, local or remote). Must be called for all local
// philosophers before any Acquire; every worker must register consistently.
func (m *Manager) AddPhil(id PhilID, neighbors []PhilID) {
	if m.ownerOf(id) != m.worker {
		panic(fmt.Sprintf("chandy: philosopher %d belongs to worker %d, not %d", id, m.ownerOf(id), m.worker))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.phils[id]; dup {
		panic(fmt.Sprintf("chandy: philosopher %d registered twice", id))
	}
	nbrs := slices.DeleteFunc(slices.Clone(neighbors), func(q PhilID) bool { return q == id })
	slices.Sort(nbrs)
	nbrs = slices.Compact(nbrs)
	p := &phil{id: id, state: thinking, nbrs: nbrs, edges: make([]byte, len(nbrs))}
	for i, q := range nbrs {
		if id < q {
			p.edges[i] = bitToken // smaller ID: request token
		} else {
			p.edges[i] = bitFork | bitDirty // larger ID: dirty fork
		}
	}
	m.phils[id] = p
}

// SetMetrics attaches a metrics registry: Acquire counts lock_acquires
// and its blocked time (lock_wait_ns counter + histogram; fast-path
// acquires observe 0), and the yield/request rules count fork_grants and
// token_sends with their remote variants. Call before any Acquire.
func (m *Manager) SetMetrics(reg *metrics.Registry) { m.reg = reg }

// Stats returns a copy of the traffic counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Acquire blocks until philosopher id holds all its forks and is eating,
// returning true. It returns false without acquiring anything when the
// manager has been aborted (the engine's liveness watchdog declared the
// superstep stalled): callers must then skip the critical section and must
// NOT call Release. Callers must pair every true return with exactly one
// Release.
func (m *Manager) Acquire(id PhilID) bool {
	ch := m.RequestForks(id)
	if ch == nil {
		return false
	}
	return m.Collect(id, ch)
}

// RequestForks is the asynchronous half of Acquire: it makes philosopher id
// hungry, sends its fork requests, and returns immediately with a channel
// that is closed once all forks are in hand (possibly already closed, on
// the all-forks-present fast path). The caller owes exactly one Collect per
// non-nil channel — that pairing is what keeps the lock-wait histogram's
// count equal to lock_acquires. A nil return means the manager is aborted;
// nothing was requested or counted, and no Collect (or Release) may follow.
// Once the channel closes the philosopher is eating — it holds all its
// forks and excludes its neighbors until Release — so a caller holding
// several requests open should collect granted philosophers promptly.
func (m *Manager) RequestForks(id PhilID) <-chan struct{} {
	m.mu.Lock()
	defer m.unlock()
	if m.aborted {
		// Not counted as a lock acquire: nothing was requested or waited
		// for, so skipping the counters keeps the wait histogram's count
		// equal to lock_acquires.
		return nil
	}
	if m.reg != nil {
		m.reg.Add(metrics.LockAcquires, 1)
	}
	p := m.mustPhil(id)
	if p.state != thinking {
		panic(fmt.Sprintf("chandy: RequestForks(%d) while %v", id, p.state))
	}
	p.state = hungry
	// Count every missing fork before sending any request: a local request
	// can yield a fork back synchronously, and the resulting missing-fork
	// countdown must start from the complete total.
	p.missing = 0
	for _, st := range p.edges {
		if st&bitFork == 0 {
			p.missing++
		}
	}
	ch := make(chan struct{})
	if p.missing == 0 {
		m.startEatingLocked(p)
		close(ch)
		return ch
	}
	p.ready = ch
	// Request every missing fork whose token we hold. Without the token our
	// request is already pending at the holder (we sent the token earlier,
	// or the holder will yield after eating); nothing to do but wait. A
	// local request can only change the edge it travels on, so the rest of
	// the scan sees the state the count above saw.
	for i, st := range p.edges {
		if st&(bitFork|bitToken) == bitToken {
			m.sendTokenLocked(p, i)
		}
	}
	return ch
}

// Collect completes a RequestForks: it waits (if needed) for the grant
// channel to close and reports whether the philosopher is eating. A false
// return means the wait was cut short by Abort; the caller must skip the
// critical section and must NOT call Release. A grant that arrived before
// Collect observes zero wait, exactly like Acquire's all-forks-present
// fast path: the wait was hidden, not paid.
func (m *Manager) Collect(id PhilID, ch <-chan struct{}) bool {
	select {
	case <-ch:
		if m.reg != nil {
			m.reg.Observe(metrics.HistLockWait, 0)
		}
	default:
		if m.reg == nil {
			<-ch
		} else {
			t0 := time.Now()
			<-ch
			wait := int64(time.Since(t0))
			m.reg.Add(metrics.LockWaitNs, wait)
			m.reg.Observe(metrics.HistLockWait, wait)
		}
	}
	// An abort wakes hungry philosophers without feeding them: distinguish
	// a real meal from an aborted wait by the state the wake left us in.
	m.mu.Lock()
	ok := m.mustPhil(id).state == eating
	m.mu.Unlock()
	return ok
}

// Abort wakes every hungry philosopher without granting its forks and makes
// all future Acquire calls fail fast until ClearAbort or Import. The
// engine's liveness watchdog uses it to unwedge compute threads blocked on
// a fork that will never arrive (e.g. a lost control message under fault
// injection) so the superstep can reach its barrier and recovery can run.
// Eating philosophers are untouched — their threads are not stuck and will
// Release normally. Fork and token bits are left as they are; recovery
// re-establishes a consistent quiescent state via Import before the next
// superstep runs.
func (m *Manager) Abort() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.aborted = true
	for _, p := range m.phils {
		if p.state != hungry {
			continue
		}
		p.state = thinking
		p.missing = 0
		if p.ready != nil {
			close(p.ready)
			p.ready = nil
		}
	}
}

// ClearAbort re-arms an aborted manager. Recovery calls it (directly or via
// Import) once a consistent fork state has been restored.
func (m *Manager) ClearAbort() {
	m.mu.Lock()
	m.aborted = false
	m.mu.Unlock()
}

// Release ends philosopher id's meal and services deferred requests.
func (m *Manager) Release(id PhilID) {
	m.mu.Lock()
	defer m.unlock()
	p := m.mustPhil(id)
	if p.state != eating {
		panic(fmt.Sprintf("chandy: Release(%d) while %v", id, p.state))
	}
	p.state = thinking
	for i := range p.edges {
		m.maybeYieldLocked(p, i)
	}
}

// Eating reports whether philosopher id is currently eating (for tests and
// invariant checks).
func (m *Manager) Eating(id PhilID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mustPhil(id).state == eating
}

// HandleCtrl processes a control message from another worker's manager.
func (m *Manager) HandleCtrl(c Ctrl) {
	m.mu.Lock()
	defer m.unlock()
	m.handleLocked(c)
}

// HandleCtrls processes a frame from another worker's manager: its
// messages in order, under one lock hold, answering with at most one frame
// per destination.
func (m *Manager) HandleCtrls(frame []Ctrl) {
	m.mu.Lock()
	defer m.unlock()
	for _, c := range frame {
		m.handleLocked(c)
	}
}

func (m *Manager) handleLocked(c Ctrl) {
	p := m.mustPhil(c.To)
	switch c.Kind {
	case TokenMsg:
		m.tokenArrivesLocked(p, p.slot(c.From, "token"))
	case ForkMsg:
		m.forkArrivesLocked(p, p.slot(c.From, "fork"))
	default:
		panic(fmt.Sprintf("chandy: bad ctrl kind %d", c.Kind))
	}
}

// queueLocked appends c to worker to's outbox.
func (m *Manager) queueLocked(to int, c Ctrl) {
	if to >= len(m.out) {
		m.out = append(m.out, make([][]Ctrl, to+1-len(m.out))...)
	}
	if len(m.out[to]) == 0 {
		m.outDests = append(m.outDests, to)
	}
	m.out[to] = append(m.out[to], c)
}

// unlock drains every outbox, one frame per destination, and releases mu.
// Sending before the lock drops keeps each lane's frames in the order
// their critical sections ran.
func (m *Manager) unlock() {
	for _, to := range m.outDests {
		frame := m.out[to]
		if m.sendFrame != nil {
			m.out[to] = nil // the frame now belongs to the sender
			m.sendFrame(to, frame)
			continue
		}
		for _, c := range frame {
			m.sendCtrl(to, c)
		}
		m.out[to] = frame[:0]
	}
	m.outDests = m.outDests[:0]
	m.mu.Unlock()
}

func (m *Manager) mustPhil(id PhilID) *phil {
	p := m.phils[id]
	if p == nil {
		panic(fmt.Sprintf("chandy: unknown philosopher %d on worker %d", id, m.worker))
	}
	return p
}

// sendTokenLocked moves p's request token for its edge i to the neighbor.
func (m *Manager) sendTokenLocked(p *phil, i int) {
	q := p.nbrs[i]
	p.edges[i] &^= bitToken
	m.stats.TokenSends++
	if m.reg != nil {
		m.reg.Add(metrics.TokenSends, 1)
	}
	if owner := m.ownerOf(q); owner != m.worker {
		m.stats.RemoteTokenSends++
		if m.reg != nil {
			m.reg.Add(metrics.TokenSendsRemote, 1)
		}
		m.queueLocked(owner, Ctrl{Kind: TokenMsg, From: p.id, To: q})
		return
	}
	qp := m.mustPhil(q)
	m.tokenArrivesLocked(qp, qp.slot(p.id, "token"))
}

// tokenArrivesLocked records a request token at p for its edge i, then
// applies the yield rule.
func (m *Manager) tokenArrivesLocked(p *phil, i int) {
	p.edges[i] |= bitToken
	m.maybeYieldLocked(p, i)
}

// maybeYieldLocked applies the hygienic release rule for p's edge i: a
// philosopher that is not eating and holds a dirty fork whose request token
// is present must clean the fork and send it over, keeping the token. If p
// is hungry it immediately re-requests the fork it just gave up.
func (m *Manager) maybeYieldLocked(p *phil, i int) {
	const yield = bitFork | bitDirty | bitToken
	if p.state == eating || p.edges[i]&yield != yield {
		return
	}
	q := p.nbrs[i]
	p.edges[i] &^= bitFork | bitDirty
	if p.state == hungry {
		// Yielding while hungry: this fork is missing again and must be
		// re-counted before the re-request below.
		p.missing++
	}
	m.stats.ForkSends++
	if m.reg != nil {
		m.reg.Add(metrics.ForkGrants, 1)
	}
	if owner := m.ownerOf(q); owner != m.worker {
		m.stats.RemoteForkSends++
		if m.reg != nil {
			m.reg.Add(metrics.ForkGrantsRemote, 1)
		}
		if m.preHandoff != nil {
			m.preHandoff(owner) // flush replica updates ahead of the fork (C1)
		}
		m.queueLocked(owner, Ctrl{Kind: ForkMsg, From: p.id, To: q})
	} else {
		qp := m.mustPhil(q)
		m.forkArrivesLocked(qp, qp.slot(p.id, "fork"))
	}
	if p.state == hungry {
		// We still hold the token, lack the fork, and are hungry: request.
		m.sendTokenLocked(p, i)
	}
}

// forkArrivesLocked records the (clean) fork at p for its edge i and starts
// the meal if it was the last fork.
func (m *Manager) forkArrivesLocked(p *phil, i int) {
	if p.edges[i]&bitFork != 0 {
		panic(fmt.Sprintf("chandy: duplicate fork on edge %d-%d", p.id, p.nbrs[i]))
	}
	p.edges[i] |= bitFork // clean
	if p.state != hungry {
		return
	}
	p.missing--
	if p.missing == 0 {
		m.startEatingLocked(p)
		if p.ready != nil {
			close(p.ready)
			p.ready = nil
		}
	}
}

// startEatingLocked transitions a hungry philosopher holding all forks to
// eating and dirties every fork.
func (m *Manager) startEatingLocked(p *phil) {
	p.state = eating
	m.stats.Meals++
	for i, st := range p.edges {
		if st&bitFork == 0 {
			panic(fmt.Sprintf("chandy: %d eating without fork %d-%d", p.id, p.id, p.nbrs[i]))
		}
		p.edges[i] = st | bitDirty
	}
}

func (s philState) String() string {
	switch s {
	case thinking:
		return "thinking"
	case hungry:
		return "hungry"
	case eating:
		return "eating"
	}
	return "invalid"
}

// Export snapshots all fork/token/dirty state for checkpointing (§6.4).
// Call only while the cluster is quiescent: no philosopher eating or
// hungry, no control messages in flight.
func (m *Manager) Export() map[PhilID]map[PhilID]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[PhilID]map[PhilID]byte, len(m.phils))
	for id, p := range m.phils {
		edges := make(map[PhilID]byte, len(p.edges))
		for i, st := range p.edges {
			edges[p.nbrs[i]] = st
		}
		out[id] = edges
	}
	return out
}

// Mirror derives one side's quiescent edge byte from its peer's: each
// fork and each request token lives on exactly one side of an edge, so a
// peer byte lacking the fork bit means we hold the fork (dirty — at a
// quiescent barrier every held fork has been dirtied by its last meal),
// and a peer byte lacking the token bit means we hold the token. Confined
// recovery uses it to rebuild a crashed worker's edge state toward healthy
// neighbors from the healthy side's in-memory Export.
func Mirror(peer byte) byte {
	var st byte
	if peer&bitFork == 0 {
		st = bitFork | bitDirty
	}
	if peer&bitToken == 0 {
		st |= bitToken
	}
	return st
}

// Import restores state captured by Export (or assembled via Mirror).
// Philosophers must already be registered with the same topology. Importing
// also clears any pending abort: the restored state is quiescent and
// consistent, so the manager is safe to use again.
func (m *Manager) Import(state map[PhilID]map[PhilID]byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.aborted = false
	for id, edges := range state {
		p := m.phils[id]
		if p == nil {
			panic(fmt.Sprintf("chandy: Import for unknown philosopher %d", id))
		}
		for q, st := range edges {
			p.edges[p.slot(q, "Import")] = st
		}
	}
}
