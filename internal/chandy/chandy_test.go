package chandy

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"serialgraph/internal/cluster"
)

// singleWorker wires one Manager with no network.
func singleWorker() *Manager {
	var m *Manager
	m = NewManager(0, func(PhilID) int { return 0 },
		func(int, Ctrl) { panic("no remote workers") }, nil)
	return m
}

func TestPairAlternation(t *testing.T) {
	m := singleWorker()
	m.AddPhil(0, []PhilID{1})
	m.AddPhil(1, []PhilID{0})

	var inMeal [2]atomic.Bool
	var meals [2]int
	var wg sync.WaitGroup
	for id := PhilID(0); id < 2; id++ {
		wg.Add(1)
		go func(id PhilID) {
			defer wg.Done()
			other := 1 - id
			for i := 0; i < 200; i++ {
				m.Acquire(id)
				if !inMeal[id].CompareAndSwap(false, true) {
					t.Errorf("phil %d already eating", id)
				}
				if inMeal[other].Load() {
					t.Errorf("neighbors %d and %d eating together", id, other)
				}
				meals[id]++
				inMeal[id].Store(false)
				m.Release(id)
			}
		}(id)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock: pair did not finish")
	}
	if meals[0] != 200 || meals[1] != 200 {
		t.Errorf("meals = %v", meals)
	}
}

// exclusionHarness runs every philosopher of a random conflict graph for
// `rounds` meals on a single manager and checks mutual exclusion between
// neighbors throughout.
func exclusionHarness(t *testing.T, n int, adj [][]PhilID, mgr *Manager, acquire func(PhilID), release func(PhilID), rounds int) {
	t.Helper()
	eatingNow := make([]atomic.Bool, n)
	var violations atomic.Int64
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id PhilID) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				acquire(id)
				eatingNow[id].Store(true)
				for _, q := range adj[id] {
					if eatingNow[q].Load() {
						violations.Add(1)
					}
				}
				eatingNow[id].Store(false)
				release(id)
			}
		}(PhilID(id))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: philosophers did not finish")
	}
	if v := violations.Load(); v > 0 {
		t.Errorf("%d mutual exclusion violations", v)
	}
}

func randomConflictGraph(r *rand.Rand, n int, extraEdges int) [][]PhilID {
	adj := make([][]PhilID, n)
	addEdge := func(a, b int) {
		for _, q := range adj[a] {
			if q == PhilID(b) {
				return
			}
		}
		adj[a] = append(adj[a], PhilID(b))
		adj[b] = append(adj[b], PhilID(a))
	}
	for i := 1; i < n; i++ {
		addEdge(i-1, i)
	}
	for i := 0; i < extraEdges; i++ {
		a, b := r.Intn(n), r.Intn(n)
		if a != b {
			addEdge(a, b)
		}
	}
	return adj
}

func TestRandomGraphSingleManager(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	n := 30
	adj := randomConflictGraph(r, n, 60)
	m := singleWorker()
	for id := 0; id < n; id++ {
		m.AddPhil(PhilID(id), adj[id])
	}
	exclusionHarness(t, n, adj, m, func(p PhilID) { m.Acquire(p) }, m.Release, 50)
	st := m.Stats()
	if st.Meals != int64(n*50) {
		t.Errorf("meals = %d, want %d", st.Meals, n*50)
	}
	if st.RemoteForkSends != 0 || st.RemoteTokenSends != 0 {
		t.Errorf("remote traffic on single worker: %+v", st)
	}
}

// distributed wires w managers over a real simulated transport, the way
// the engines do: each critical section's remote traffic leaves as one
// frame per destination worker.
func distributed(t *testing.T, w int, adj [][]PhilID, ownerOf func(PhilID) int, lat cluster.LatencyModel) ([]*Manager, func()) {
	t.Helper()
	tr := cluster.New(w, lat)
	mgrs := make([]*Manager, w)
	eps := make([]*cluster.Endpoint, w)
	for i := 0; i < w; i++ {
		i := i
		mgrs[i] = NewManager(i, ownerOf, nil, nil)
		mgrs[i].SetFrameSender(func(toWorker int, frame []Ctrl) {
			eps[i].SendCtrl(cluster.WorkerID(toWorker), frame, cluster.CtrlFrameBytes(len(frame)))
		})
		eps[i] = cluster.NewEndpoint(tr, cluster.WorkerID(i), nil,
			func(from cluster.WorkerID, payload any) {
				mgrs[i].HandleCtrls(payload.([]Ctrl))
			})
	}
	for id := range adj {
		mgrs[ownerOf(PhilID(id))].AddPhil(PhilID(id), adj[id])
	}
	return mgrs, tr.Close
}

// edgeState returns the state byte philosopher a keeps for its edge to b.
func edgeState(m *Manager, a, b PhilID) byte {
	p := m.phils[a]
	return p.edges[p.slot(b, "test")]
}

func TestDistributedPair(t *testing.T) {
	adj := [][]PhilID{{1}, {0}}
	ownerOf := func(p PhilID) int { return int(p) }
	mgrs, closeFn := distributed(t, 2, adj, ownerOf, cluster.LatencyModel{Propagation: time.Millisecond})
	defer closeFn()
	acquire := func(p PhilID) { mgrs[ownerOf(p)].Acquire(p) }
	release := func(p PhilID) { mgrs[ownerOf(p)].Release(p) }
	exclusionHarness(t, 2, adj, nil, acquire, release, 50)
	_ = mgrs
}

func TestDistributedRandomGraph(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n, w := 24, 4
	adj := randomConflictGraph(r, n, 40)
	ownerOf := func(p PhilID) int { return int(p) % w }
	mgrs, closeFn := distributed(t, w, adj, ownerOf, cluster.LatencyModel{Propagation: 200 * time.Microsecond})
	defer closeFn()
	acquire := func(p PhilID) { mgrs[ownerOf(p)].Acquire(p) }
	release := func(p PhilID) { mgrs[ownerOf(p)].Release(p) }
	exclusionHarness(t, n, adj, nil, acquire, release, 25)
	var remote int64
	for _, m := range mgrs {
		remote += m.Stats().RemoteForkSends
	}
	if remote == 0 {
		t.Error("expected remote fork traffic across 4 workers")
	}
}

func TestHaltedPhilosopherYieldsOnRequest(t *testing.T) {
	// A eats once and never again (a halted partition). B must still be
	// able to eat repeatedly: A's manager yields A's dirty fork on request
	// even though A's own thread is gone.
	m := singleWorker()
	m.AddPhil(0, []PhilID{1})
	m.AddPhil(1, []PhilID{0})
	m.Acquire(0)
	m.Release(0)
	done := make(chan struct{})
	go func() {
		for i := 0; i < 10; i++ {
			m.Acquire(1)
			m.Release(1)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("B starved behind halted A")
	}
}

func TestNoNeighborsEatsImmediately(t *testing.T) {
	m := singleWorker()
	m.AddPhil(5, nil)
	done := make(chan struct{})
	go func() {
		m.Acquire(5)
		m.Release(5)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("isolated philosopher blocked")
	}
}

func TestInitialPlacement(t *testing.T) {
	m := singleWorker()
	m.AddPhil(1, []PhilID{2})
	m.AddPhil(2, []PhilID{1})
	if st := edgeState(m, 1, 2); st != bitToken {
		t.Errorf("smaller id state = %b, want token only", st)
	}
	if st := edgeState(m, 2, 1); st != bitFork|bitDirty {
		t.Errorf("larger id state = %b, want dirty fork", st)
	}
}

func TestSmallerIDHasInitialPriority(t *testing.T) {
	// From the initial acyclic placement, the smaller ID requests and the
	// larger yields, so a lone hungry smaller ID eats without the larger
	// ever acquiring.
	m := singleWorker()
	m.AddPhil(0, []PhilID{1})
	m.AddPhil(1, []PhilID{0})
	done := make(chan struct{})
	go func() { m.Acquire(0); close(done) }()
	select {
	case <-done:
		m.Release(0)
	case <-time.After(time.Second):
		t.Fatal("initial request not honored")
	}
}

func TestFairnessUnderContention(t *testing.T) {
	// Star: hub 0 contends with 8 spokes. Everyone must finish the same
	// number of meals — no starvation even for the hub.
	n := 9
	adj := make([][]PhilID, n)
	for i := 1; i < n; i++ {
		adj[0] = append(adj[0], PhilID(i))
		adj[i] = []PhilID{0}
	}
	m := singleWorker()
	for id := 0; id < n; id++ {
		m.AddPhil(PhilID(id), adj[id])
	}
	exclusionHarness(t, n, adj, m, func(p PhilID) { m.Acquire(p) }, m.Release, 40)
}

func TestAcquireTwicePanics(t *testing.T) {
	m := singleWorker()
	m.AddPhil(0, nil)
	m.Acquire(0)
	defer func() {
		if recover() == nil {
			t.Error("double Acquire did not panic")
		}
	}()
	m.Acquire(0)
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	m := singleWorker()
	m.AddPhil(0, nil)
	defer func() {
		if recover() == nil {
			t.Error("Release without Acquire did not panic")
		}
	}()
	m.Release(0)
}

func TestPreHandoffRunsBeforeRemoteFork(t *testing.T) {
	// Worker 0 owns phil 0; worker 1 owns phil 1. When 0's fork leaves for
	// worker 1, preHandoff(1) must run before the frame carrying it.
	var order []string
	var mu sync.Mutex
	tr := cluster.New(2, cluster.LatencyModel{})
	defer tr.Close()
	ownerOf := func(p PhilID) int { return int(p) }
	mgrs := make([]*Manager, 2)
	eps := make([]*cluster.Endpoint, 2)
	for i := 0; i < 2; i++ {
		i := i
		pre := func(toWorker int) {
			mu.Lock()
			order = append(order, "flush")
			mu.Unlock()
		}
		mgrs[i] = NewManager(i, ownerOf, nil, pre)
		mgrs[i].SetFrameSender(func(toWorker int, frame []Ctrl) {
			for _, c := range frame {
				if c.Kind == ForkMsg {
					mu.Lock()
					order = append(order, "fork")
					mu.Unlock()
				}
			}
			eps[i].SendCtrl(cluster.WorkerID(toWorker), frame, cluster.CtrlFrameBytes(len(frame)))
		})
		eps[i] = cluster.NewEndpoint(tr, cluster.WorkerID(i), nil,
			func(from cluster.WorkerID, payload any) { mgrs[i].HandleCtrls(payload.([]Ctrl)) })
	}
	mgrs[0].AddPhil(0, []PhilID{1})
	mgrs[1].AddPhil(1, []PhilID{0})
	// Phil 0 starts with the token, phil 1 with the dirty fork: phil 0
	// requesting makes worker 1 yield the fork across the network.
	mgrs[0].Acquire(0)
	mgrs[0].Release(0)
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < len(order); i++ {
		if order[i] == "fork" && order[i-1] != "flush" {
			t.Errorf("fork sent without preceding flush: %v", order)
		}
	}
	if len(order) == 0 {
		t.Error("no fork exchange happened")
	}
}

// TestPerCtrlFallback drives managers with no frame sender installed: each
// queued message then leaves through the per-Ctrl sendCtrl callback, one
// call per fork or token, still in generation order per destination.
func TestPerCtrlFallback(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	n, w := 16, 4
	adj := randomConflictGraph(r, n, 30)
	ownerOf := func(p PhilID) int { return int(p) % w }
	tr := cluster.New(w, cluster.LatencyModel{Propagation: 50 * time.Microsecond})
	defer tr.Close()
	mgrs := make([]*Manager, w)
	eps := make([]*cluster.Endpoint, w)
	var sent atomic.Int64
	for i := 0; i < w; i++ {
		i := i
		mgrs[i] = NewManager(i, ownerOf, func(toWorker int, c Ctrl) {
			sent.Add(1)
			eps[i].SendCtrl(cluster.WorkerID(toWorker), c, cluster.CtrlBytes)
		}, nil)
		eps[i] = cluster.NewEndpoint(tr, cluster.WorkerID(i), nil,
			func(from cluster.WorkerID, payload any) { mgrs[i].HandleCtrl(payload.(Ctrl)) })
	}
	for id := range adj {
		mgrs[ownerOf(PhilID(id))].AddPhil(PhilID(id), adj[id])
	}
	acquire := func(p PhilID) { mgrs[ownerOf(p)].Acquire(p) }
	release := func(p PhilID) { mgrs[ownerOf(p)].Release(p) }
	exclusionHarness(t, n, adj, nil, acquire, release, 10)
	var remote int64
	for _, m := range mgrs {
		st := m.Stats()
		remote += st.RemoteForkSends + st.RemoteTokenSends
	}
	if remote == 0 || sent.Load() != remote {
		t.Errorf("sendCtrl called %d times for %d remote forks and tokens", sent.Load(), remote)
	}
}

func TestStatsCounting(t *testing.T) {
	m := singleWorker()
	m.AddPhil(0, []PhilID{1})
	m.AddPhil(1, []PhilID{0})
	m.Acquire(0) // one token send (0->1), one fork send (1->0)
	m.Release(0)
	st := m.Stats()
	if st.TokenSends != 1 || st.ForkSends != 1 || st.Meals != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	m := singleWorker()
	m.AddPhil(0, []PhilID{1, 2})
	m.AddPhil(1, []PhilID{0, 2})
	m.AddPhil(2, []PhilID{0, 1})
	// Mutate state away from the initial placement.
	m.Acquire(2)
	m.Release(2)
	snap := m.Export()

	// A fresh manager with the same topology, restored.
	m2 := singleWorker()
	m2.AddPhil(0, []PhilID{1, 2})
	m2.AddPhil(1, []PhilID{0, 2})
	m2.AddPhil(2, []PhilID{0, 1})
	m2.Import(snap)
	snap2 := m2.Export()
	for id, edges := range snap {
		for q, st := range edges {
			if snap2[id][q] != st {
				t.Fatalf("edge %d-%d state %b != %b after import", id, q, snap2[id][q], st)
			}
		}
	}
	// The restored manager must still work.
	done := make(chan struct{})
	go func() {
		for i := 0; i < 5; i++ {
			m2.Acquire(0)
			m2.Release(0)
			m2.Acquire(1)
			m2.Release(1)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("restored manager deadlocked")
	}
}

func TestImportUnknownPhilosopherPanics(t *testing.T) {
	m := singleWorker()
	m.AddPhil(0, []PhilID{1})
	m.AddPhil(1, []PhilID{0})
	defer func() {
		if recover() == nil {
			t.Error("Import of unknown philosopher did not panic")
		}
	}()
	m.Import(map[PhilID]map[PhilID]byte{99: {0: 1}})
}

func TestDistributedHighContentionWithBandwidth(t *testing.T) {
	// Dense conflict graph over a slow network: exclusion and progress
	// must hold even when control messages queue behind bandwidth limits.
	r := rand.New(rand.NewSource(13))
	n, w := 16, 4
	adj := randomConflictGraph(r, n, 80)
	ownerOf := func(p PhilID) int { return int(p) % w }
	mgrs, closeFn := distributed(t, w, adj, ownerOf,
		cluster.LatencyModel{Propagation: 100 * time.Microsecond, BytesPerSec: 1 << 22})
	defer closeFn()
	acquire := func(p PhilID) { mgrs[ownerOf(p)].Acquire(p) }
	release := func(p PhilID) { mgrs[ownerOf(p)].Release(p) }
	exclusionHarness(t, n, adj, nil, acquire, release, 15)
}
