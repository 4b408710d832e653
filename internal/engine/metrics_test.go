package engine

import (
	"reflect"
	"testing"
	"time"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/cluster"
	"serialgraph/internal/fault"
	"serialgraph/internal/generate"
	"serialgraph/internal/graph"
	"serialgraph/internal/metrics"
	"serialgraph/internal/model"
)

// checkConservation asserts the equalities that must hold between the
// metrics registry and the transport's ground-truth counters on a
// fault-free run. Every remote send funnels through the buffer cache and
// every control send through the counted closures, so any instrumentation
// gap on a send or deliver path breaks one of these exactly.
func checkConservation(t *testing.T, res Result) {
	t.Helper()
	m := res.Metrics
	if got, want := m.Get(metrics.RemoteBatches), res.Net.DataMessages; got != want {
		t.Errorf("remote_batches = %d, transport DataMessages = %d", got, want)
	}
	if got, want := m.Get(metrics.RemoteBatchBytes), res.Net.DataBytes; got != want {
		t.Errorf("remote_batch_bytes = %d, transport DataBytes = %d", got, want)
	}
	if got, want := m.Get(metrics.CtrlMessages), res.Net.ControlMessages; got != want {
		t.Errorf("ctrl_messages = %d, transport ControlMessages = %d", got, want)
	}
	if got, want := m.Get(metrics.CtrlBytes), res.Net.ControlBytes; got != want {
		t.Errorf("ctrl_bytes = %d, transport ControlBytes = %d", got, want)
	}
	if got, want := m.Get(metrics.RemoteEntriesDelivered), m.Get(metrics.RemoteEntriesFlushed); got != want {
		t.Errorf("remote_entries_delivered = %d, remote_entries_flushed = %d", got, want)
	}
	if got, want := m.Get(metrics.Executions), res.Executions; got != want {
		t.Errorf("executions counter = %d, Result.Executions = %d", got, want)
	}
	if got, want := m.Hist(metrics.HistBatchEntries).Count, m.Get(metrics.RemoteBatches); got != want {
		t.Errorf("batch_entries hist count = %d, remote_batches = %d", got, want)
	}
	if flushed, buffered := m.Get(metrics.RemoteEntriesFlushed), m.Get(metrics.RemoteEntries); flushed > buffered {
		t.Errorf("remote_entries_flushed = %d > remote_entries = %d", flushed, buffered)
	}
}

func TestMetricsConservation(t *testing.T) {
	g := testGraph(t)
	cases := []struct {
		name string
		mode Mode
		sync Sync
	}{
		{"bsp", BSP, SyncNone},
		{"async-none", Async, SyncNone},
		{"async-token-single", Async, TokenSingle},
		{"async-token-dual", Async, TokenDual},
		{"async-partition-lock", Async, PartitionLock},
		{"async-vertex-lock", Async, VertexLockGiraph},
		{"bap-none", BAP, SyncNone},
		{"bap-partition-lock", BAP, PartitionLock},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Workers: 4, Mode: tc.mode, Sync: tc.sync, Seed: 5, DetailedStats: true}
			_, res, _, err := Run(g, algorithms.SSSP(0), cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkConservation(t, res)
			m := res.Metrics
			if tc.mode == BAP {
				if got := m.Get(metrics.Supersteps); got < int64(res.Supersteps) {
					t.Errorf("supersteps counter = %d < Result.Supersteps = %d", got, res.Supersteps)
				}
			} else if got := m.Get(metrics.Supersteps); got != int64(res.Supersteps) {
				t.Errorf("supersteps counter = %d, Result.Supersteps = %d", got, res.Supersteps)
			}
			if m.Get(metrics.LocalMessages)+m.Get(metrics.RemoteEntries) == 0 {
				t.Error("no messages counted at all; SSSP sends plenty")
			}
			switch tc.sync {
			case PartitionLock, VertexLockGiraph:
				if m.Get(metrics.LockAcquires) == 0 {
					t.Error("locking run recorded no lock_acquires")
				}
				if got, want := m.Hist(metrics.HistLockWait).Count, m.Get(metrics.LockAcquires); got != want {
					t.Errorf("lock_wait hist count = %d, lock_acquires = %d", got, want)
				}
				if got, want := m.Get(metrics.ForkGrants), res.ForkSends; got != want {
					t.Errorf("fork_grants = %d, Result.ForkSends = %d", got, want)
				}
				if got, want := m.Get(metrics.TokenSends), res.TokenSends; got != want {
					t.Errorf("token_sends = %d, Result.TokenSends = %d", got, want)
				}
				// Every remote fork and token rides in exactly one frame, and
				// a frame costs CtrlBytes plus CtrlEntryBytes per extra entry.
				frames, entries := m.Get(metrics.CtrlMessages), m.Get(metrics.CtrlEntries)
				if want := m.Get(metrics.ForkGrantsRemote) + m.Get(metrics.TokenSendsRemote); entries != want || entries == 0 {
					t.Errorf("ctrl_entries = %d, fork_grants_remote + token_sends_remote = %d", entries, want)
				}
				if frames > entries {
					t.Errorf("ctrl_messages = %d frames > ctrl_entries = %d", frames, entries)
				}
				if got, want := m.Get(metrics.CtrlBytes), frames*cluster.CtrlBytes+(entries-frames)*cluster.CtrlEntryBytes; got != want {
					t.Errorf("ctrl_bytes = %d, frame size model gives %d", got, want)
				}
			case TokenSingle, TokenDual:
				if m.Get(metrics.FlushMarkers) == 0 {
					t.Error("token run recorded no flush markers")
				}
				if got, want := m.Get(metrics.FlushMarkers), m.Get(metrics.CtrlMessages); got != want {
					t.Errorf("token runs send no other control traffic: markers = %d, ctrl = %d", got, want)
				}
				if got, want := m.Get(metrics.FlushMarkers), res.Net.AckMessages; got != want {
					t.Errorf("every flush marker is acked: markers = %d, acks = %d", got, want)
				}
				// Markers go out only when the global token moves, at most
				// one per peer.
				tokens := &runner[struct{}, struct{}]{cfg: cfg.withDefaults()}
				handoffs := 0
				for s := 0; s < res.Supersteps; s++ {
					holder, _ := tokens.tokenState(s)
					if next, _ := tokens.tokenState(s + 1); next != holder {
						handoffs++
						continue
					}
					if ctrl := res.SuperstepStats[s].CtrlMsgs; ctrl != 0 {
						t.Errorf("superstep %d keeps the global token but sent %d control messages", s, ctrl)
					}
				}
				if tc.sync == TokenDual && handoffs == res.Supersteps {
					t.Errorf("every one of %d TokenDual supersteps is a handoff; the check above is vacuous", handoffs)
				}
				if got, max := m.Get(metrics.FlushMarkers), int64((cfg.Workers-1)*handoffs); got > max {
					t.Errorf("flush_markers = %d > (workers-1) x %d global handoffs = %d", got, handoffs, max)
				}
			}
		})
	}
}

// TestMetricsFinalWhenRunReturns pins that Result.Metrics is the registry's
// final state: over TCP the lane writers account wire time until the
// transport closes, so a snapshot taken before Close can miss their last
// updates. The loop gives that race many chances on both return paths,
// the barriered loop and BAP.
func TestMetricsFinalWhenRunReturns(t *testing.T) {
	equivRequireLoopback(t)
	g := equivGraph(true)
	for i := 0; i < 20; i++ {
		cfg := Config{Workers: 3, PartitionsPerWorker: 2, Mode: Async, Sync: TokenDual,
			Transport: TransportTCP, Seed: uint64(i), MaxSupersteps: 200, Metrics: metrics.New()}
		if i%4 == 3 {
			cfg.Mode, cfg.Sync = BAP, PartitionLock
		}
		_, res, _, err := Run(g, algorithms.Coloring(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cfg.Metrics.Snapshot(), res.Metrics) {
			t.Fatalf("run %d (%v/%v): registry changed after Run returned", i, cfg.Mode, cfg.Sync)
		}
	}
}

// TestMetricsConservationUnderDrops reconciles the registry with the
// transport on a run with injected message drops (no crashes, no
// duplicates): every batch the engine emitted was either counted as data
// traffic or counted as dropped, and control traffic — which chaos never
// touches — still matches exactly.
func TestMetricsConservationUnderDrops(t *testing.T) {
	g := testGraph(t)
	_, res, _, err := Run(g, algorithms.SSSP(0), Config{
		Workers: 4, Mode: Async, Sync: SyncNone, Seed: 5,
		Fault: fault.NewInjector(fault.Plan{DropRate: 0.25, Seed: 99}),
	})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if res.Net.DroppedMessages == 0 {
		t.Fatal("drop plan dropped nothing; raise DropRate or the graph size")
	}
	if got, want := m.Get(metrics.RemoteBatches), res.Net.DataMessages+res.Net.DroppedMessages; got != want {
		t.Errorf("remote_batches = %d, DataMessages+DroppedMessages = %d", got, want)
	}
	if got, want := m.Get(metrics.CtrlMessages), res.Net.ControlMessages; got != want {
		t.Errorf("ctrl_messages = %d, transport ControlMessages = %d", got, want)
	}
	if delivered, flushed := m.Get(metrics.RemoteEntriesDelivered), m.Get(metrics.RemoteEntriesFlushed); delivered >= flushed {
		t.Errorf("drops should lose entries: delivered = %d, flushed = %d", delivered, flushed)
	}
}

// TestPhaseInvariants checks the per-superstep phase breakdown: every
// phase duration is non-negative, and — because compute, remote-flush,
// and barrier-wait are disjoint wall intervals within each worker's
// superstep — their sum across workers never exceeds workers × the
// master's superstep wall time.
func TestPhaseInvariants(t *testing.T) {
	g := testGraph(t)
	const workers = 4
	for _, sync := range []Sync{SyncNone, TokenSingle, PartitionLock} {
		sync := sync
		t.Run(sync.String(), func(t *testing.T) {
			_, res, _, err := Run(g, algorithms.SSSP(0), Config{
				Workers: workers, Mode: Async, Sync: sync, Seed: 5, DetailedStats: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.SuperstepStats) == 0 {
				t.Fatal("DetailedStats produced no per-superstep stats")
			}
			for i, st := range res.SuperstepStats {
				if st.ComputeNs < 0 || st.LocalDeliveryNs < 0 || st.RemoteFlushNs < 0 || st.BarrierWaitNs < 0 {
					t.Fatalf("superstep %d: negative phase duration: %+v", i, st)
				}
				sum := st.ComputeNs + st.RemoteFlushNs + st.BarrierWaitNs
				if bound := int64(st.Duration) * workers; sum > bound {
					t.Fatalf("superstep %d: phase sum %d > %d×wall %d", i, sum, workers, bound)
				}
			}
			for _, p := range metrics.Phases() {
				if res.Metrics.Phase(p) < 0 {
					t.Fatalf("phase %s negative: %v", p.Name(), res.Metrics.Phase(p))
				}
			}
			if res.Metrics.Phase(metrics.PhaseCompute) == 0 {
				t.Error("compute phase never accrued")
			}
		})
	}
}

// broadcastProgram floods every out-neighbor each superstep and never
// halts, so under single-layer token passing the holder executes every
// (boundary) vertex while the others sit idle — the workload that makes
// the token techniques' hold/idle accounting sharply visible.
func broadcastProgram() model.Program[int32, int32] {
	return model.Program[int32, int32]{
		Name: "broadcast", Semantics: model.Queue, MsgBytes: 4,
		Compute: func(ctx model.Context[int32, int32], msgs []int32) {
			ctx.SetValue(int32(len(msgs)))
			ctx.SendToAllOut(1)
		},
	}
}

// TestTokenHolderNeverWaitsAtBarrier: on a complete graph every vertex is
// a remote-boundary vertex, so under TokenSingle only the holder's
// vertices execute and the holder — doing all the work — is the last
// worker to finish every superstep. Its barrier-wait is therefore zero,
// which surfaces as exact equality between the total barrier-wait phase
// (all workers) and token_idle_ns (non-holders only).
//
// The finish-order argument needs a real timing margin, not just "the
// holder computed longer": with per-lane bandwidth, the holder's flush
// marker serializes behind all of its own data, so its delivery ack comes
// at least one propagation delay after the idle worker's — milliseconds,
// far above goroutine wake-up jitter even on one CPU under -race.
func TestTokenHolderNeverWaitsAtBarrier(t *testing.T) {
	const n = 80
	b := graph.NewBuilder(n)
	for u := graph.VertexID(0); u < n; u++ {
		for v := graph.VertexID(0); v < n; v++ {
			if u != v {
				b.AddEdge(u, v)
			}
		}
	}
	g := b.Build()
	_, res, _, err := Run(g, broadcastProgram(), Config{
		Workers: 2, Mode: Async, Sync: TokenSingle, Seed: 1,
		MaxSupersteps: 6,
		Latency: cluster.LatencyModel{
			Propagation: 2 * time.Millisecond,
			BytesPerSec: 1e6,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	hold := m.Get(metrics.TokenHoldNs)
	idle := m.Get(metrics.TokenIdleNs)
	if hold <= 0 {
		t.Fatalf("token_hold_ns = %d, want > 0", hold)
	}
	if got := int64(m.Phase(metrics.PhaseBarrierWait)); got != idle {
		t.Errorf("barrier_wait_ns total = %d != token_idle_ns = %d: the holder waited at a barrier", got, idle)
	}
	if idle <= 0 {
		t.Errorf("token_idle_ns = %d: the idle worker never waited for the holder", idle)
	}
}

// TestExternalRegistryAccumulatesAcrossRuns: a caller-supplied registry
// outlives one run, so two runs add up — the sharing contract torture and
// bench rely on.
func TestExternalRegistryAccumulatesAcrossRuns(t *testing.T) {
	g := generate.PowerLaw(generate.PowerLawConfig{N: 100, AvgDegree: 4, Exponent: 2.2, Seed: 3})
	reg := metrics.New()
	cfg := Config{Workers: 2, Mode: Async, Sync: SyncNone, Seed: 5, Metrics: reg}
	_, res1, _, err := Run(g, algorithms.SSSP(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, res2, _, err := Run(g, algorithms.SSSP(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := res1.Executions + res2.Executions
	if got := reg.Get(metrics.Executions); got != want {
		t.Errorf("shared registry executions = %d, want %d", got, want)
	}
	if got := res2.Metrics.Get(metrics.Executions); got != want {
		t.Errorf("second Result snapshot = %d, want cumulative %d", got, want)
	}
}
