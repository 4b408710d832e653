package cluster

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSendDeliversToHandler(t *testing.T) {
	tr := New(2, LatencyModel{})
	defer tr.Close()
	got := make(chan Message, 1)
	tr.RegisterHandler(0, func(m Message) {})
	tr.RegisterHandler(1, func(m Message) { got <- m })
	tr.Send(Message{From: 0, To: 1, Kind: Data, Bytes: 100, Payload: "hi"})
	select {
	case m := <-got:
		if m.Payload != "hi" || m.From != 0 {
			t.Errorf("got %+v", m)
		}
	case <-time.After(time.Second):
		t.Fatal("message never delivered")
	}
}

func TestFIFOPerLane(t *testing.T) {
	tr := New(2, LatencyModel{})
	defer tr.Close()
	tr.RegisterHandler(0, func(m Message) {})
	var mu sync.Mutex
	var order []int
	done := make(chan struct{})
	tr.RegisterHandler(1, func(m Message) {
		mu.Lock()
		order = append(order, m.Payload.(int))
		if len(order) == 1000 {
			close(done)
		}
		mu.Unlock()
	})
	for i := 0; i < 1000; i++ {
		tr.Send(Message{From: 0, To: 1, Kind: Data, Payload: i})
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("not all messages delivered")
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d: FIFO violated", i, v)
		}
	}
}

func TestPropagationDelay(t *testing.T) {
	tr := New(2, LatencyModel{Propagation: 30 * time.Millisecond})
	defer tr.Close()
	tr.RegisterHandler(0, func(m Message) {})
	got := make(chan time.Time, 1)
	tr.RegisterHandler(1, func(m Message) { got <- time.Now() })
	start := time.Now()
	tr.Send(Message{From: 0, To: 1, Kind: Control})
	at := <-got
	if d := at.Sub(start); d < 25*time.Millisecond {
		t.Errorf("delivered after %v, want >= ~30ms", d)
	}
}

// TestSubMillisecondDeliveryOnTime pins on-time delivery on an idle
// process: a plain time.Sleep(50µs) wakes about 1ms late when every P is
// idle, which would make every simulated hop cost 20× its modeled latency.
// Pinging one message at a time keeps the process idle between hops.
func TestSubMillisecondDeliveryOnTime(t *testing.T) {
	const pings = 200
	tr := New(2, LatencyModel{Propagation: 50 * time.Microsecond})
	defer tr.Close()
	tr.RegisterHandler(0, func(m Message) {})
	got := make(chan time.Time, 1)
	tr.RegisterHandler(1, func(m Message) { got <- time.Now() })
	lat := make([]time.Duration, pings)
	for i := range lat {
		start := time.Now()
		tr.Send(Message{From: 0, To: 1, Kind: Control})
		lat[i] = (<-got).Sub(start)
		if lat[i] < 50*time.Microsecond {
			t.Fatalf("ping %d delivered after %v, before its 50µs propagation", i, lat[i])
		}
	}
	slices.Sort(lat)
	if med := lat[pings/2]; med >= 500*time.Microsecond {
		t.Errorf("median send-to-handler latency %v at 50µs propagation, want < 500µs", med)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	// 10 KB at 100 KB/s = 100ms serialization delay.
	tr := New(2, LatencyModel{BytesPerSec: 100_000})
	defer tr.Close()
	tr.RegisterHandler(0, func(m Message) {})
	got := make(chan time.Time, 2)
	tr.RegisterHandler(1, func(m Message) { got <- time.Now() })
	start := time.Now()
	tr.Send(Message{From: 0, To: 1, Kind: Data, Bytes: 5000})
	tr.Send(Message{From: 0, To: 1, Kind: Data, Bytes: 5000})
	<-got
	second := <-got
	// The two messages need 100ms of combined serialization.
	if d := second.Sub(start); d < 80*time.Millisecond {
		t.Errorf("second message delivered after %v, want >= ~100ms", d)
	}
}

func TestLatencyDoesNotSerializeAcrossLanes(t *testing.T) {
	// Messages on distinct lanes should be delayed in parallel: total time
	// for 4 lanes at 30ms each must be ~30ms, not 120ms.
	tr := New(4, LatencyModel{Propagation: 30 * time.Millisecond})
	defer tr.Close()
	var wg sync.WaitGroup
	wg.Add(3)
	for w := 1; w < 4; w++ {
		tr.RegisterHandler(WorkerID(w), func(m Message) { wg.Done() })
	}
	tr.RegisterHandler(0, func(m Message) {})
	start := time.Now()
	for w := 1; w < 4; w++ {
		tr.Send(Message{From: 0, To: WorkerID(w), Kind: Control})
	}
	wg.Wait()
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("parallel lanes took %v, want ~30ms", d)
	}
}

func TestStatsAccounting(t *testing.T) {
	tr := New(2, LatencyModel{})
	defer tr.Close()
	tr.RegisterHandler(0, func(m Message) {})
	tr.RegisterHandler(1, func(m Message) {})
	tr.Send(Message{From: 0, To: 1, Kind: Data, Bytes: 100})
	tr.Send(Message{From: 0, To: 1, Kind: Data, Bytes: 50})
	tr.Send(Message{From: 1, To: 0, Kind: Control, Bytes: 64})
	tr.Send(Message{From: 1, To: 0, Kind: Ack, Bytes: 16})
	tr.WaitIdle()
	s := tr.Stats().Load()
	if s.DataMessages != 2 || s.DataBytes != 150 {
		t.Errorf("data stats %+v", s)
	}
	if s.ControlMessages != 1 || s.ControlBytes != 64 || s.AckMessages != 1 {
		t.Errorf("control stats %+v", s)
	}
	if s.TotalMessages() != 4 {
		t.Errorf("TotalMessages = %d", s.TotalMessages())
	}
	diff := tr.Stats().Load().Sub(s)
	if diff.TotalMessages() != 0 {
		t.Errorf("Sub of equal snapshots nonzero: %+v", diff)
	}
}

func TestWaitIdle(t *testing.T) {
	tr := New(2, LatencyModel{Propagation: 20 * time.Millisecond})
	defer tr.Close()
	var delivered atomic.Int32
	tr.RegisterHandler(0, func(m Message) {})
	tr.RegisterHandler(1, func(m Message) { delivered.Add(1) })
	for i := 0; i < 10; i++ {
		tr.Send(Message{From: 0, To: 1, Kind: Data})
	}
	tr.WaitIdle()
	if got := delivered.Load(); got != 10 {
		t.Errorf("WaitIdle returned with %d/10 delivered", got)
	}
	if tr.InFlight() != 0 {
		t.Errorf("InFlight = %d after WaitIdle", tr.InFlight())
	}
}

func TestHandlerMaySend(t *testing.T) {
	// Ping-pong through handlers must not deadlock.
	tr := New(2, LatencyModel{})
	defer tr.Close()
	done := make(chan struct{})
	tr.RegisterHandler(0, func(m Message) {
		if m.Payload.(int) >= 100 {
			close(done)
			return
		}
		tr.Send(Message{From: 0, To: 1, Kind: Control, Payload: m.Payload.(int) + 1})
	})
	tr.RegisterHandler(1, func(m Message) {
		tr.Send(Message{From: 1, To: 0, Kind: Control, Payload: m.Payload.(int) + 1})
	})
	tr.Send(Message{From: 1, To: 0, Kind: Control, Payload: 0})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ping-pong deadlocked")
	}
}

func TestSendAfterCloseDropped(t *testing.T) {
	tr := New(2, LatencyModel{})
	tr.RegisterHandler(0, func(m Message) {})
	tr.RegisterHandler(1, func(m Message) { t.Error("delivered after close") })
	tr.Close()
	tr.Send(Message{From: 0, To: 1, Kind: Data})
	time.Sleep(20 * time.Millisecond)
	if got := tr.Stats().Load().DroppedMessages; got != 1 {
		t.Errorf("DroppedMessages = %d, want 1 (send after Close)", got)
	}
}

func TestConcurrentSendCloseWaitIdle(t *testing.T) {
	// Senders racing Close must never strand an in-flight count: every
	// message either delivers or is counted dropped, and WaitIdle returns.
	for iter := 0; iter < 20; iter++ {
		tr := New(3, LatencyModel{})
		var delivered atomic.Int64
		for w := 0; w < 3; w++ {
			tr.RegisterHandler(WorkerID(w), func(m Message) { delivered.Add(1) })
		}
		const senders, perSender = 6, 200
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < senders; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < perSender; i++ {
					tr.Send(Message{From: WorkerID(g % 3), To: WorkerID(i % 3), Kind: Data})
				}
			}()
		}
		close(start)
		tr.Close() // races the senders
		wg.Wait()

		idle := make(chan struct{})
		go func() { tr.WaitIdle(); close(idle) }()
		select {
		case <-idle:
		case <-time.After(5 * time.Second):
			t.Fatalf("iter %d: WaitIdle hung after Send/Close race (inflight=%d)",
				iter, tr.InFlight())
		}
		s := tr.Stats().Load()
		if got := delivered.Load() + s.DroppedMessages; got != senders*perSender {
			t.Fatalf("iter %d: delivered %d + dropped %d != sent %d",
				iter, delivered.Load(), s.DroppedMessages, senders*perSender)
		}
	}
}

func TestCloseStopsGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	tr := New(8, LatencyModel{}) // 64 lanes, 64 delivery goroutines
	for w := 0; w < 8; w++ {
		tr.RegisterHandler(WorkerID(w), func(m Message) {})
	}
	for i := 0; i < 100; i++ {
		tr.Send(Message{From: WorkerID(i % 8), To: WorkerID((i + 1) % 8), Kind: Data})
	}
	tr.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 { // slack for test runner internals
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after Close: before=%d now=%d",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestKillDropsDataButNotControl(t *testing.T) {
	tr := New(2, LatencyModel{})
	defer tr.Close()
	var data, ctrl atomic.Int64
	tr.RegisterHandler(0, func(m Message) {})
	tr.RegisterHandler(1, func(m Message) {
		if m.Kind == Data {
			data.Add(1)
		} else {
			ctrl.Add(1)
		}
	})
	tr.Kill(1)
	if tr.Alive(1) {
		t.Fatal("worker 1 alive after Kill")
	}
	tr.Send(Message{From: 0, To: 1, Kind: Data})    // to dead: dropped
	tr.Send(Message{From: 1, To: 0, Kind: Data})    // from dead: dropped
	tr.Send(Message{From: 0, To: 1, Kind: Control}) // control flows
	tr.Send(Message{From: 0, To: 1, Kind: Ack})     // acks flow
	tr.WaitIdle()
	if got := data.Load(); got != 0 {
		t.Errorf("dead worker received %d data messages", got)
	}
	if got := ctrl.Load(); got != 2 {
		t.Errorf("control/ack delivered = %d, want 2", got)
	}
	if got := tr.Stats().Load().DroppedMessages; got != 2 {
		t.Errorf("DroppedMessages = %d, want 2", got)
	}
	if d := tr.DeadWorkers(); len(d) != 1 || d[0] != 1 {
		t.Errorf("DeadWorkers = %v, want [1]", d)
	}

	tr.Revive(1)
	tr.Send(Message{From: 0, To: 1, Kind: Data})
	tr.WaitIdle()
	if got := data.Load(); got != 1 {
		t.Errorf("revived worker received %d data messages, want 1", got)
	}
	if d := tr.DeadWorkers(); d != nil {
		t.Errorf("DeadWorkers after Revive = %v, want none", d)
	}
}

func TestKillDropsInFlightData(t *testing.T) {
	// A data message already on the wire when its receiver dies is lost.
	tr := New(2, LatencyModel{Propagation: 50 * time.Millisecond})
	defer tr.Close()
	tr.RegisterHandler(0, func(m Message) {})
	tr.RegisterHandler(1, func(m Message) { t.Error("delivered to dead worker") })
	tr.Send(Message{From: 0, To: 1, Kind: Data})
	tr.Kill(1)
	tr.WaitIdle()
	s := tr.Stats().Load()
	if s.DroppedMessages != 1 {
		t.Errorf("DroppedMessages = %d, want 1", s.DroppedMessages)
	}
	// Counted when sent, and again as a wire loss.
	if s.DataMessages != 1 {
		t.Errorf("DataMessages = %d, want 1", s.DataMessages)
	}
}

func TestEndpointFlushWait(t *testing.T) {
	tr := New(3, LatencyModel{Propagation: 10 * time.Millisecond})
	defer tr.Close()
	var received [3]atomic.Int32
	var eps [3]*Endpoint
	for w := 0; w < 3; w++ {
		w := w
		eps[w] = NewEndpoint(tr, WorkerID(w),
			func(from WorkerID, payload any) { received[w].Add(int32(payload.(int))) },
			nil)
	}
	for i := 0; i < 5; i++ {
		eps[0].SendData(1, 1, 10)
		eps[0].SendData(2, 1, 10)
	}
	if n := eps[0].FlushWait([]WorkerID{0, 1, 2}); n != 2 { // self in targets is skipped
		t.Errorf("FlushWait sent %d markers, want 2", n)
	}
	if received[1].Load() != 5 || received[2].Load() != 5 {
		t.Errorf("flush acked before data applied: %d/%d",
			received[1].Load(), received[2].Load())
	}
	CheckFlushDirtyLanes(t, tr, eps[0], func(to WorkerID) { eps[0].SendData(to, 1, 10) })
	if received[1].Load() != 6 {
		t.Errorf("peer 1 applied %d batches after the dirty-lane flush, want 6", received[1].Load())
	}
}

// CheckFlushDirtyLanes checks that FlushWait marks only lanes that carried
// data since their last acked flush. ep is worker 0 of a three-worker
// transport tr whose lanes to workers 1 and 2 were just flushed; send sends
// one data batch to a peer. Exported for the TCP backend's external test
// package.
func CheckFlushDirtyLanes(t *testing.T, tr Transport, ep *Endpoint, send func(to WorkerID)) {
	t.Helper()
	all := []WorkerID{0, 1, 2}
	before := tr.Stats().Load()
	send(1)
	if n := ep.FlushWait(all); n != 1 {
		t.Errorf("FlushWait after data to peer 1 only sent %d markers, want 1", n)
	}
	if d := tr.Stats().Load().Sub(before); d.ControlMessages != 1 || d.AckMessages != 1 {
		t.Errorf("dirty-lane flush: %d markers and %d acks on the wire, want 1 and 1", d.ControlMessages, d.AckMessages)
	}
	before = tr.Stats().Load()
	if n := ep.FlushWait(all); n != 0 {
		t.Errorf("FlushWait with every lane clean sent %d markers, want 0", n)
	}
	if d := tr.Stats().Load().Sub(before); d.TotalMessages() != 0 {
		t.Errorf("clean flush put %d messages on the wire, want 0", d.TotalMessages())
	}
	// An aborted flush may have cleared a flag whose marker was never
	// acked, so re-arming flushes every lane again.
	ep.Abort()
	ep.ResetAbort()
	if n := ep.FlushWait(all); n != 2 {
		t.Errorf("FlushWait after ResetAbort sent %d markers, want 2", n)
	}
}

func TestEndpointCtrlDispatch(t *testing.T) {
	tr := New(2, LatencyModel{})
	defer tr.Close()
	gotCtrl := make(chan any, 1)
	NewEndpoint(tr, 0, nil, nil)
	e1ctrl := func(from WorkerID, payload any) { gotCtrl <- payload }
	NewEndpoint(tr, 1, nil, e1ctrl)
	tr.Send(Message{From: 0, To: 1, Kind: Control, Payload: "fork"})
	select {
	case p := <-gotCtrl:
		if p != "fork" {
			t.Errorf("payload = %v", p)
		}
	case <-time.After(time.Second):
		t.Fatal("control not dispatched")
	}
}

func TestConcurrentSendersStress(t *testing.T) {
	tr := New(4, LatencyModel{})
	defer tr.Close()
	var count atomic.Int64
	for w := 0; w < 4; w++ {
		tr.RegisterHandler(WorkerID(w), func(m Message) { count.Add(1) })
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 500; i++ {
					tr.Send(Message{From: WorkerID(w), To: WorkerID(i % 4), Kind: Data})
				}
			}()
		}
	}
	wg.Wait()
	tr.WaitIdle()
	if got := count.Load(); got != 4*4*500 {
		t.Errorf("delivered %d of %d", got, 4*4*500)
	}
}

func TestCloseIdempotent(t *testing.T) {
	tr := New(2, LatencyModel{})
	tr.RegisterHandler(0, func(m Message) {})
	tr.RegisterHandler(1, func(m Message) {})
	tr.Close()
	tr.Close() // second close must be a no-op
}

func TestDoubleRegisterPanics(t *testing.T) {
	tr := New(1, LatencyModel{})
	defer tr.Close()
	tr.RegisterHandler(0, func(m Message) {})
	defer func() {
		if recover() == nil {
			t.Error("double register did not panic")
		}
	}()
	tr.RegisterHandler(0, func(m Message) {})
}

func TestBadEndpointsPanic(t *testing.T) {
	tr := New(2, LatencyModel{})
	defer tr.Close()
	tr.RegisterHandler(0, func(m Message) {})
	tr.RegisterHandler(1, func(m Message) {})
	defer func() {
		if recover() == nil {
			t.Error("out-of-range destination did not panic")
		}
	}()
	tr.Send(Message{From: 0, To: 9})
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{Data: "data", Control: "control", Ack: "ack"} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

func TestSelfSendGoesThroughSimulatedPath(t *testing.T) {
	tr := New(1, LatencyModel{})
	defer tr.Close()
	got := make(chan Message, 1)
	tr.RegisterHandler(0, func(m Message) { got <- m })
	tr.Send(Message{From: 0, To: 0, Kind: Data, Payload: 42})
	select {
	case m := <-got:
		if m.Payload != 42 {
			t.Errorf("payload = %v", m.Payload)
		}
	case <-time.After(time.Second):
		t.Fatal("self-send not delivered")
	}
}
