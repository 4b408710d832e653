package torture

import (
	"flag"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"serialgraph/internal/engine"
	"serialgraph/internal/partition"
)

// Replay and sizing knobs. A failing sweep prints the exact command to
// re-run just the failing case:
//
//	go test ./internal/torture -run TestTorture -torture.seed=0x...
var (
	flagSeed = flag.Uint64("torture.seed", 0,
		"replay a single case seed instead of sweeping (accepts 0x... hex)")
	flagN = flag.Int("torture.n", 0,
		"number of sampled cases (default 50 with -short, 120 otherwise)")
	flagRoot = flag.Uint64("torture.root", 0xdecaf,
		"root seed the sweep derives its case seeds from")
	flagFaulty = flag.Bool("torture.faulty", false,
		"fault-plan sweep: count only cases whose plan schedules a crash toward -torture.n (other cases are skipped, keeping seeds replayable)")
	flagTinyBudget = flag.Bool("torture.tinybudget", false,
		"force a tiny message-plane memory budget on every case (nightly bounded-memory row; replay failures with the same flag plus -torture.seed)")
	flagStreamPart = flag.Bool("torture.streampart", false,
		"force the streaming partitioner (ldg) on every case (nightly locality row; replay failures with the same flag plus -torture.seed)")
	flagToken = flag.Bool("torture.token", false,
		"force Async with TokenSingle or TokenDual (alternating by seed) on every case (nightly token row; replay failures with the same flag plus -torture.seed)")
)

// applyToken moves the scenario onto a token technique when -torture.token
// is set: Async with TokenSingle or TokenDual, picked by a seed bit so the
// sweep runs both. Topology mutations need SyncNone, so mutate cases run
// coloring instead, the workload token passing exists to make correct.
// Like applyTinyBudget, the override is flag-derived: replaying a failure
// needs the same flag.
func applyToken(sc Scenario) Scenario {
	if !*flagToken {
		return sc
	}
	if sc.Mode == engine.BAP {
		sc.MaxSupersteps = 500 // BAP's logical-superstep cap does not apply
	}
	sc.Mode = engine.Async
	sc.Sync = engine.TokenSingle
	if sc.Seed&2 != 0 {
		sc.Sync = engine.TokenDual
	}
	if sc.Algorithm == "mutate" {
		sc.Algorithm = "coloring"
	}
	return sc
}

// applyStreamPart pins the scenario's partitioner to ldg when
// -torture.streampart is set. Like applyTinyBudget, the override is
// flag-derived: replaying a failure needs the same flag.
func applyStreamPart(sc Scenario) Scenario {
	if *flagStreamPart {
		sc.Partitioner = partition.KindLDG
	}
	return sc
}

// applyTinyBudget pins the scenario's budget to a small sampled-looking
// value when -torture.tinybudget is set, so the whole sweep runs with
// credit windows at the floor and the BSP spill tier constantly cutting
// runs. The override is flag-derived, not seed-derived, so replaying a
// failure needs the same flag.
func applyTinyBudget(sc Scenario) Scenario {
	if *flagTinyBudget && sc.MsgBudget == 0 {
		sc.MsgBudget = 512
	}
	return sc
}

// waitGoroutines polls until the goroutine count drops back to the
// baseline (plus a little slack for runtime bookkeeping), failing the
// test if a case leaked workers.
func waitGoroutines(t *testing.T, baseline int, sc Scenario) {
	t.Helper()
	const slack = 4
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+slack {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after scenario %v: %d goroutines, baseline %d", sc, n, baseline)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// failCase shrinks a failing scenario and reports both the original and
// the minimized repro, with the one-line replay command.
func failCase(t *testing.T, sc Scenario, err error, scratch string) {
	t.Helper()
	t.Logf("FAIL %v\n%v", sc, err)
	t.Logf("replay: go test ./internal/torture -run TestTorture -torture.seed=%#x", sc.Seed)
	small, smallErr := Shrink(sc, err, scratch)
	t.Fatalf("torture case failed.\n  original: %v\n  shrunk:   %v\n  shrunk failure:\n%v\n  replay: go test ./internal/torture -run TestTorture -torture.seed=%#x",
		sc, small, smallErr, sc.Seed)
}

// TestTorture is the randomized sweep: it samples the configuration cube
// from a fixed root seed (so CI runs are reproducible) and applies every
// oracle to each case. With -torture.seed it replays exactly one case.
func TestTorture(t *testing.T) {
	if *flagSeed != 0 {
		sc := applyToken(applyStreamPart(applyTinyBudget(Sample(*flagSeed))))
		if sc.Transport == engine.TransportTCP && !LoopbackAvailable() {
			t.Skipf("seed %#x needs TCP loopback, unavailable here", sc.Seed)
		}
		t.Logf("replaying %v", sc)
		if err := RunScenario(sc, t.TempDir()); err != nil {
			t.Fatalf("replay failed:\n%v", err)
		}
		return
	}

	n := *flagN
	if n == 0 {
		n = 120
		if testing.Short() {
			n = 50
		}
	}
	baseline := runtime.NumGoroutine()
	ran := 0
	for i := 0; ran < n; i++ {
		seed := CaseSeed(*flagRoot, i)
		sc := applyToken(applyStreamPart(applyTinyBudget(Sample(seed))))
		if *flagFaulty && (sc.Fault == nil || len(sc.Fault.Crashes) == 0) {
			// The fault-plan sweep spends its case budget only on crash
			// scenarios; skipping (rather than resampling) keeps every
			// executed seed replayable with a plain -torture.seed.
			continue
		}
		if sc.Transport == engine.TransportTCP && !LoopbackAvailable() {
			// Same skip-not-resample rule for the transport dimension:
			// sandboxes without loopback skip TCP cases, so the seeds
			// that do run replay identically everywhere.
			continue
		}
		ran++
		scratch := t.TempDir()
		if err := RunScenario(sc, scratch); err != nil {
			failCase(t, sc, err, scratch)
		}
		waitGoroutines(t, baseline, sc)
	}
}

// TestTortureReplayDeterministic proves the seed fully determines the
// scenario: decoding the same case seed twice yields identical structs,
// and successive case seeds are distinct (the sweep actually moves).
func TestTortureReplayDeterministic(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 200; i++ {
		seed := CaseSeed(0xfeed, i)
		if seen[seed] {
			t.Fatalf("case seed %#x repeats within the sweep", seed)
		}
		seen[seed] = true
		a, b := Sample(seed), Sample(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("Sample(%#x) is not deterministic:\n  %v\n  %v", seed, a, b)
		}
	}
}

// TestTortureCatchesBrokenProtocol is the harness self-test: with
// synchronization disabled while serializability is requested, the 1SR/C2
// oracle must flag the run, and replaying the same seed must reproduce
// the catch. Concurrency interleavings are not part of the seed, so both
// the hunt and the replay allow a few attempts.
func TestTortureCatchesBrokenProtocol(t *testing.T) {
	caught := uint64(0)
	var caughtErr error
	for i := 0; i < 40 && caught == 0; i++ {
		seed := CaseSeed(0xbad5eed, i)
		sc := SampleBroken(seed)
		if err := RunScenario(sc, t.TempDir()); err != nil && strings.Contains(err.Error(), "serializability") {
			caught, caughtErr = seed, err
		}
	}
	if caught == 0 {
		t.Fatal("broken protocol was never flagged by the serializability oracle")
	}
	t.Logf("caught broken protocol at seed %#x:\n%v", caught, caughtErr)
	t.Logf("replay: go test ./internal/torture -run TestTortureCatchesBrokenProtocol (seed %#x)", caught)

	// Reproduce from the printed seed.
	reproduced := false
	for attempt := 0; attempt < 10 && !reproduced; attempt++ {
		sc := SampleBroken(caught)
		if err := RunScenario(sc, t.TempDir()); err != nil && strings.Contains(err.Error(), "serializability") {
			reproduced = true
		}
	}
	if !reproduced {
		t.Fatalf("seed %#x did not reproduce the serializability violation on replay", caught)
	}
}

// TestShrinkSimplifies checks the minimizer on a scenario whose failure
// is deterministic (a broken protocol on a dense graph): the shrunk
// scenario must be no larger than the original and must still fail.
func TestShrinkSimplifies(t *testing.T) {
	if testing.Short() {
		t.Skip("shrinking budget is slow; covered by the long mode")
	}
	var sc Scenario
	var firstErr error
	for i := 0; i < 40; i++ {
		cand := SampleBroken(CaseSeed(0x5111, i))
		if err := RunScenario(cand, t.TempDir()); err != nil {
			sc, firstErr = cand, err
			break
		}
	}
	if firstErr == nil {
		t.Skip("no failing broken scenario found to shrink")
	}
	small, smallErr := Shrink(sc, firstErr, t.TempDir())
	if smallErr == nil {
		t.Fatal("Shrink returned a nil failure")
	}
	if small.N > sc.N || small.Threads > sc.Threads || small.Workers > sc.Workers {
		t.Fatalf("shrunk scenario grew: %v -> %v", sc, small)
	}
	if got := fmt.Sprint(small); !strings.Contains(got, "broken=true") {
		t.Fatalf("shrinking must not clear BreakProtocol: %v", got)
	}
}
