package chandy

// Tests for the split RequestForks/Collect acquisition API. The two
// load-bearing properties:
//
//   - No fork leaks: however many requests are outstanding when a round
//     drains (granted philosophers that never ran any compute included),
//     collecting and releasing them all restores the quiescent two-sided
//     edge invariant — exactly one side holds the (dirty) fork, exactly
//     one side holds the request token, nobody hungry or eating. A leaked
//     fork here would surface as a cross-worker deadlock at the next
//     superstep's barrier.
//   - Acyclic precedence under concurrency: many philosophers issuing
//     RequestForks simultaneously with a delayed Collect must preserve
//     mutual exclusion and starvation-freedom just like the blocking
//     Acquire path — the hygienic rules only ever see hungry
//     philosophers, however they became hungry.
//
// Each property runs twice: on the synchronous oracle (one manager owning
// every philosopher, so every fork and token moves inline under one lock)
// and on managers spread over several workers that exchange whole control
// frames through a loopback, the way the engines' transports carry them.

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"serialgraph/internal/cluster"
	"serialgraph/internal/metrics"
)

const rigWorkers = 4

// frameLoopback delivers control frames between in-process managers in
// send order on one goroutine. Delivery cannot be inline: a manager sends
// while holding its lock, and the receiver may answer at once.
type frameLoopback struct {
	mgrs []*Manager

	mu      sync.Mutex
	cond    *sync.Cond
	q       []loopFrame
	busy    bool
	closed  bool
	frames  int64
	entries int64
	done    chan struct{}
}

type loopFrame struct {
	to    int
	frame []Ctrl
}

func newFrameLoopback(mgrs []*Manager) *frameLoopback {
	l := &frameLoopback{mgrs: mgrs, done: make(chan struct{})}
	l.cond = sync.NewCond(&l.mu)
	go l.run()
	return l
}

func (l *frameLoopback) send(to int, frame []Ctrl) {
	l.mu.Lock()
	l.q = append(l.q, loopFrame{to, frame})
	l.frames++
	l.entries += int64(len(frame))
	l.mu.Unlock()
	l.cond.Broadcast()
}

func (l *frameLoopback) run() {
	defer close(l.done)
	l.mu.Lock()
	for {
		for len(l.q) == 0 && !l.closed {
			l.cond.Wait()
		}
		if len(l.q) == 0 {
			l.mu.Unlock()
			return
		}
		f := l.q[0]
		l.q = l.q[1:]
		l.busy = true
		l.mu.Unlock()
		l.mgrs[f.to].HandleCtrls(f.frame)
		l.mu.Lock()
		l.busy = false
		l.cond.Broadcast()
	}
}

// waitIdle blocks until every frame sent so far has been handled.
func (l *frameLoopback) waitIdle() {
	l.mu.Lock()
	for len(l.q) > 0 || l.busy {
		l.cond.Wait()
	}
	l.mu.Unlock()
}

func (l *frameLoopback) stop() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.cond.Broadcast()
	<-l.done
}

// rig is one conflict graph's philosophers on either the synchronous
// oracle (lb == nil) or rigWorkers framed managers.
type rig struct {
	mgrs    []*Manager
	ownerOf func(PhilID) int
	lb      *frameLoopback
}

var rigKinds = []struct {
	name   string
	framed bool
}{{"sync", false}, {"frames", true}}

func newRig(t *testing.T, framed bool, adj [][]PhilID) *rig {
	r := &rig{ownerOf: func(PhilID) int { return 0 }}
	if !framed {
		r.mgrs = []*Manager{singleWorker()}
	} else {
		r.ownerOf = func(p PhilID) int { return int(p) % rigWorkers }
		r.mgrs = make([]*Manager, rigWorkers)
		for i := range r.mgrs {
			r.mgrs[i] = NewManager(i, r.ownerOf, nil, nil)
		}
		r.lb = newFrameLoopback(r.mgrs)
		for _, m := range r.mgrs {
			m.SetFrameSender(r.lb.send)
		}
		t.Cleanup(r.lb.stop)
	}
	for id := range adj {
		r.mgr(PhilID(id)).AddPhil(PhilID(id), adj[id])
	}
	return r
}

func (r *rig) mgr(p PhilID) *Manager { return r.mgrs[r.ownerOf(p)] }

func (r *rig) stats() Stats {
	var sum Stats
	for _, m := range r.mgrs {
		st := m.Stats()
		sum.ForkSends += st.ForkSends
		sum.TokenSends += st.TokenSends
		sum.RemoteForkSends += st.RemoteForkSends
		sum.RemoteTokenSends += st.RemoteTokenSends
		sum.Meals += st.Meals
	}
	return sum
}

// checkFrames verifies the framed rig's ledger: every remote fork and token
// crossed in exactly one frame.
func (r *rig) checkFrames(t *testing.T) {
	t.Helper()
	if r.lb == nil {
		return
	}
	r.lb.waitIdle()
	st := r.stats()
	r.lb.mu.Lock()
	frames, entries := r.lb.frames, r.lb.entries
	r.lb.mu.Unlock()
	if remote := st.RemoteForkSends + st.RemoteTokenSends; entries != remote {
		t.Errorf("frames carried %d entries for %d remote forks and tokens", entries, remote)
	}
	if frames == 0 || frames > entries {
		t.Errorf("%d frames for %d entries", frames, entries)
	}
}

// quiescentInvariant checks the drained-state property: every philosopher
// thinking, and each edge's two bytes mirror images of each other (one
// dirty fork, one token, never zero or two).
func quiescentInvariant(t *testing.T, r *rig, adj [][]PhilID) {
	t.Helper()
	if r.lb != nil {
		r.lb.waitIdle()
	}
	for _, m := range r.mgrs {
		m.mu.Lock()
		for id, p := range m.phils {
			if p.state != thinking {
				t.Fatalf("phil %d left %v after drain", id, p.state)
			}
			if p.ready != nil {
				t.Fatalf("phil %d still holds a grant channel after drain", id)
			}
		}
		m.mu.Unlock()
	}
	state := func(a, b PhilID) byte {
		m := r.mgr(a)
		m.mu.Lock()
		defer m.mu.Unlock()
		return edgeState(m, a, b)
	}
	for a := range adj {
		for _, b := range adj[a] {
			if PhilID(a) > b {
				continue // each undirected edge once
			}
			sa, sb := state(PhilID(a), b), state(b, PhilID(a))
			if sb != Mirror(sa) {
				t.Fatalf("edge %d-%d not quiescent: %03b / %03b", a, b, sa, sb)
			}
		}
	}
}

// TestPrefetchDrainNoForkLeaks is the fork-leak property test: rounds of
// request-ahead traffic — issue a window of RequestForks, then drain by
// polling for grants (never blocking on one specific philosopher),
// collecting and releasing each. None of the granted philosophers runs
// any compute: every fork requested ahead and left unused must be back in
// a one-fork-one-token state before the round (the "barrier") ends. The
// framed rig replays the oracle's request sequence and must serve the
// same number of meals.
func TestPrefetchDrainNoForkLeaks(t *testing.T) {
	const n, rounds = 24, 40
	adj := randomConflictGraph(rand.New(rand.NewSource(91)), n, 50)
	var meals [2]int64
	for k, kind := range rigKinds {
		t.Run(kind.name, func(t *testing.T) {
			rg := newRig(t, kind.framed, adj)
			r := rand.New(rand.NewSource(92))
			deadline := time.Now().Add(20 * time.Second)
			for round := 0; round < rounds; round++ {
				// A random window: between one philosopher and all of them,
				// in random order, so neighbors are routinely hungry together.
				order := r.Perm(n)[:1+r.Intn(n)]
				type pending struct {
					id PhilID
					ch <-chan struct{}
				}
				var outstanding []pending
				for _, id := range order {
					ch := rg.mgr(PhilID(id)).RequestForks(PhilID(id))
					if ch == nil {
						t.Fatal("RequestForks returned nil without an abort")
					}
					outstanding = append(outstanding, pending{PhilID(id), ch})
				}
				for len(outstanding) > 0 {
					if time.Now().After(deadline) {
						t.Fatalf("round %d: drain stalled with %d outstanding", round, len(outstanding))
					}
					progressed := false
					for i := 0; i < len(outstanding); i++ {
						select {
						case <-outstanding[i].ch:
						default:
							continue // not granted yet; never block on one phil
						}
						p := outstanding[i]
						m := rg.mgr(p.id)
						if !m.Collect(p.id, p.ch) {
							t.Fatalf("round %d: Collect(%d) failed without an abort", round, p.id)
						}
						m.Release(p.id)
						outstanding[i] = outstanding[len(outstanding)-1]
						outstanding = outstanding[:len(outstanding)-1]
						progressed = true
						i--
					}
					if !progressed {
						runtime.Gosched()
					}
				}
				quiescentInvariant(t, rg, adj)
			}
			rg.checkFrames(t)
			meals[k] = rg.stats().Meals
			if meals[k] == 0 {
				t.Fatal("no meals happened; the property was tested vacuously")
			}
		})
	}
	if meals[0] != meals[1] {
		t.Errorf("framed rig served %d meals, the synchronous oracle %d", meals[1], meals[0])
	}
}

// TestConcurrentRequestForksExclusion is the acyclic-precedence regression
// test: every philosopher of a random conflict graph acquires prefetch-style
// — RequestForks, then a deliberately widened window before Collect — from
// its own goroutine. Exclusion violations or a harness timeout here would
// mean concurrent RequestForks broke the precedence order that Chandy–Misra's
// deadlock/starvation-freedom proof depends on. The registry cross-check
// pins the API contract that makes the wait histogram meaningful: exactly
// one Collect observation per RequestForks.
func TestConcurrentRequestForksExclusion(t *testing.T) {
	const n, rounds = 20, 30
	adj := randomConflictGraph(rand.New(rand.NewSource(17)), n, 40)
	for _, kind := range rigKinds {
		t.Run(kind.name, func(t *testing.T) {
			rg := newRig(t, kind.framed, adj)
			reg := metrics.New()
			for _, m := range rg.mgrs {
				m.SetMetrics(reg)
			}
			acquire := func(p PhilID) {
				m := rg.mgr(p)
				ch := m.RequestForks(p)
				if ch == nil {
					t.Error("RequestForks returned nil without an abort")
					return
				}
				runtime.Gosched() // widen the request→collect window
				if !m.Collect(p, ch) {
					t.Errorf("Collect(%d) failed without an abort", p)
				}
			}
			release := func(p PhilID) { rg.mgr(p).Release(p) }
			exclusionHarness(t, n, adj, nil, acquire, release, rounds)
			if got, want := rg.stats().Meals, int64(n*rounds); got != want {
				t.Errorf("meals = %d, want %d", got, want)
			}
			quiescentInvariant(t, rg, adj)
			rg.checkFrames(t)
			snap := reg.Snapshot()
			if got, want := snap.Hist(metrics.HistLockWait).Count, snap.Get(metrics.LockAcquires); got != want {
				t.Errorf("lock_wait hist count = %d, lock_acquires = %d", got, want)
			}
		})
	}
}

// TestDistributedConcurrentRequestForks runs the same request-ahead
// acquisition over a real simulated transport, so token and fork frames
// from concurrently hungry philosophers interleave with network latency.
func TestDistributedConcurrentRequestForks(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	n, w := 16, 4
	adj := randomConflictGraph(r, n, 30)
	ownerOf := func(p PhilID) int { return int(p) % w }
	mgrs, closeFn := distributed(t, w, adj, ownerOf,
		cluster.LatencyModel{Propagation: 150 * time.Microsecond})
	defer closeFn()
	acquire := func(p PhilID) {
		mgr := mgrs[ownerOf(p)]
		ch := mgr.RequestForks(p)
		if ch == nil {
			t.Error("RequestForks returned nil without an abort")
			return
		}
		time.Sleep(50 * time.Microsecond) // overlap window
		if !mgr.Collect(p, ch) {
			t.Errorf("Collect(%d) failed without an abort", p)
		}
	}
	release := func(p PhilID) { mgrs[ownerOf(p)].Release(p) }
	exclusionHarness(t, n, adj, nil, acquire, release, 20)
}

// TestCollectAfterAbort: an abort while a request is pending closes the
// grant channel without feeding the philosopher; Collect must report false
// and later RequestForks must fail fast with nil until the abort clears.
func TestCollectAfterAbort(t *testing.T) {
	m := singleWorker()
	m.AddPhil(0, []PhilID{1})
	m.AddPhil(1, []PhilID{0})
	if !m.Acquire(1) { // 1 starts with the dirty fork: eats immediately
		t.Fatal("Acquire(1) failed")
	}
	ch := m.RequestForks(0) // blocked behind eating neighbor
	if ch == nil {
		t.Fatal("RequestForks(0) returned nil before any abort")
	}
	m.Abort()
	if m.Collect(0, ch) {
		t.Error("Collect returned true for an aborted request")
	}
	if m.RequestForks(0) != nil {
		t.Error("RequestForks did not fail fast while aborted")
	}
	m.ClearAbort()
	m.Release(1)
	if !m.Acquire(0) {
		t.Error("Acquire(0) failed after ClearAbort")
	}
	m.Release(0)
}

// TestRequestForksWhileHungryPanics pins the double-request guard on the
// async path: a second RequestForks before the first resolves is a caller
// bug, not a queueable state.
func TestRequestForksWhileHungryPanics(t *testing.T) {
	m := singleWorker()
	m.AddPhil(0, []PhilID{1})
	m.AddPhil(1, []PhilID{0})
	if !m.Acquire(1) {
		t.Fatal("Acquire(1) failed")
	}
	if ch := m.RequestForks(0); ch == nil {
		t.Fatal("RequestForks(0) returned nil")
	}
	defer func() {
		if recover() == nil {
			t.Error("RequestForks while hungry did not panic")
		}
		m.Release(1)
	}()
	m.RequestForks(0)
}
