package torture

// shrink.go implements greedy scenario minimization: once a case fails,
// the harness tries a fixed list of simplifying transforms — remove the
// fault plan, drop checkpointing, clear ablation flags, fall back to the
// in-process transport and hash partitioning, halve the graph, reduce
// partitions, workers, threads — and keeps each transform only if the
// scenario still fails. Because
// failures can be nondeterministic (thread scheduling is not part of the
// seed), "still fails" means "failed at least once in a few attempts".

import (
	"serialgraph/internal/engine"
	"serialgraph/internal/partition"
)

// shrinkRetries is how many times a candidate is re-run before the
// shrinker concludes the transform lost the failure.
const shrinkRetries = 3

// shrinkBudget caps the total number of scenario executions one Shrink
// call may spend, so minimization never dominates the test's runtime.
const shrinkBudget = 60

type transform struct {
	name  string
	apply func(Scenario) (Scenario, bool) // ok=false when not applicable
}

var transforms = []transform{
	{"drop-fault", func(sc Scenario) (Scenario, bool) {
		if sc.Fault == nil {
			return sc, false
		}
		sc.Fault = nil
		sc.CheckpointEvery = 0
		return sc, true
	}},
	{"drop-checkpoint", func(sc Scenario) (Scenario, bool) {
		if sc.CheckpointEvery == 0 {
			return sc, false
		}
		sc.CheckpointEvery = 0
		return sc, true
	}},
	{"clear-flags", func(sc Scenario) (Scenario, bool) {
		if !sc.DisableSenderCombine && !sc.DisableHaltedSkip {
			return sc, false
		}
		sc.DisableSenderCombine = false
		sc.DisableHaltedSkip = false
		return sc, true
	}},
	{"drop-msg-budget", func(sc Scenario) (Scenario, bool) {
		if sc.MsgBudget == 0 {
			return sc, false
		}
		sc.MsgBudget = 0
		return sc, true
	}},
	{"inproc-transport", func(sc Scenario) (Scenario, bool) {
		if sc.Transport == engine.TransportInProc {
			return sc, false
		}
		sc.Transport = engine.TransportInProc
		return sc, true
	}},
	{"hash-partitioner", func(sc Scenario) (Scenario, bool) {
		if sc.Partitioner == partition.KindHash {
			return sc, false
		}
		sc.Partitioner = partition.KindHash
		return sc, true
	}},
	{"halve-n", func(sc Scenario) (Scenario, bool) {
		if sc.N <= 8 {
			return sc, false
		}
		sc.N = sc.N / 2
		if sc.N < 8 {
			sc.N = 8
		}
		return sc, true
	}},
	{"parts-to-one", func(sc Scenario) (Scenario, bool) {
		if sc.PartsPerWorker <= 1 {
			return sc, false
		}
		sc.PartsPerWorker = 1
		return sc, true
	}},
	{"fewer-workers", func(sc Scenario) (Scenario, bool) {
		// Reducing workers would orphan fault-plan crash targets.
		if sc.Workers <= 1 || sc.Fault != nil {
			return sc, false
		}
		sc.Workers--
		return sc, true
	}},
	{"fewer-threads", func(sc Scenario) (Scenario, bool) {
		if sc.Threads <= 1 {
			return sc, false
		}
		sc.Threads--
		return sc, true
	}},
}

// stillFails runs the candidate up to shrinkRetries times (within the
// remaining budget) and reports whether any attempt failed, along with
// the failure and the number of runs spent.
func stillFails(sc Scenario, scratch string, budget int) (error, int) {
	tries := shrinkRetries
	if tries > budget {
		tries = budget
	}
	for i := 0; i < tries; i++ {
		if err := RunScenario(sc, scratch); err != nil {
			return err, i + 1
		}
	}
	return nil, tries
}

// Shrink greedily minimizes a failing scenario. It returns the smallest
// scenario found that still fails, together with that scenario's failure.
// If no transform preserves the failure (or the budget runs out
// immediately), the original scenario and error are returned unchanged.
func Shrink(sc Scenario, firstErr error, scratch string) (Scenario, error) {
	best, bestErr := sc, firstErr
	budget := shrinkBudget
	progress := true
	for progress && budget > 0 {
		progress = false
		for _, tr := range transforms {
			if budget <= 0 {
				break
			}
			cand, ok := tr.apply(best)
			if !ok {
				continue
			}
			err, spent := stillFails(cand, scratch, budget)
			budget -= spent
			if err != nil {
				best, bestErr = cand, err
				progress = true
			}
		}
	}
	return best, bestErr
}
