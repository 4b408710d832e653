package partition

// stream.go implements the locality-aware streaming partitioner LDG
// (linear deterministic greedy, Stanton & Kliot, KDD 2012). It places
// vertices one at a time in ID order, scoring each candidate partition by
// how many already-placed neighbors it holds, discounted by how full the
// partition is. Unlike hash partitioning — the paper's baseline, which
// maximizes boundary fractions — a streaming pass co-locates communities,
// directly shrinking the p-boundary/m-boundary populations every
// synchronization technique pays for (§5.3).
//
// Guarantees:
//
//   - Hard balance bound: no partition ever exceeds
//     ceil((1+Epsilon) * n / p) vertices. Full partitions are simply
//     ineligible, and total capacity always covers n, so placement
//     cannot fail.
//   - Determinism: for a fixed graph, partition count, and seed the
//     output is identical. Score ties prefer the least-loaded
//     partition; residual ties are broken by a seeded hash so distinct
//     seeds explore distinct (but individually reproducible) placements.
//   - Optional refinement: RefinePasses extra passes re-stream every
//     vertex with full knowledge of the placement, moving it when a
//     strictly better partition has room.

import (
	"math"

	"serialgraph/internal/graph"
)

// DefaultEpsilon is the streaming partitioners' balance slack when
// StreamOptions.Epsilon is unset: partitions may exceed the ideal n/p
// load by 10%.
const DefaultEpsilon = 0.1

// StreamOptions tunes the streaming partitioners.
type StreamOptions struct {
	// Seed drives deterministic tie-breaking. Two runs with the same
	// seed produce the same Map; different seeds may legitimately
	// differ wherever scores tie.
	Seed uint64
	// Epsilon is the balance slack: no partition exceeds
	// ceil((1+Epsilon)*n/p) vertices. Values <= 0 mean DefaultEpsilon.
	Epsilon float64
	// RefinePasses is the number of extra refinement passes after the
	// initial stream. Each pass revisits every vertex in ID order and
	// moves it when a strictly better-scoring partition has capacity.
	RefinePasses int
}

func (o StreamOptions) epsilon() float64 {
	if o.Epsilon <= 0 {
		return DefaultEpsilon
	}
	return o.Epsilon
}

// Capacity returns the hard per-partition vertex bound the options
// imply for an n-vertex graph split p ways: ceil((1+eps)*n/p).
func (o StreamOptions) Capacity(n, p int) int {
	c := int(math.Ceil(float64(n) * (1 + o.epsilon()) / float64(p)))
	if c < 1 {
		c = 1
	}
	// Rounding never undershoots ((1+eps)*n >= n), but guard anyway so
	// placement can always succeed.
	if c*p < n {
		c = (n + p - 1) / p
	}
	return c
}

// NewLDGOpts partitions with linear deterministic greedy streaming under
// explicit options. The score of placing v into partition q is
//
//	|placed neighbors of v in q| * (1 - size(q)/capacity)
//
// so neighbors attract and fullness repels, with the capacity bound
// enforced as a hard constraint on top of the soft penalty.
//
// The initial placement pass in ID order is followed by o.RefinePasses
// refinement sweeps.
func NewLDGOpts(g *graph.Graph, p, w int, o StreamOptions) *Map {
	validate(g, p, w)
	n := g.NumVertices()
	capacity := o.Capacity(n, p)

	vp := make([]ID, n)
	for v := range vp {
		vp[v] = -1
	}
	size := make([]int, p)
	score := make([]float64, p)
	touched := make([]ID, 0, 16) // partitions with nonzero score this vertex

	place := func(v int) {
		u := graph.VertexID(v)
		count := func(nb graph.VertexID) {
			if q := vp[nb]; q >= 0 {
				if score[q] == 0 {
					touched = append(touched, q)
				}
				score[q]++
			}
		}
		for _, nb := range g.OutNeighbors(u) {
			count(nb)
		}
		for _, nb := range g.InNeighbors(u) {
			count(nb)
		}
		best, bestGain, bestTie := -1, math.Inf(-1), uint64(0)
		for i := 0; i < p; i++ {
			if size[i] >= capacity {
				continue // hard balance bound
			}
			s := score[i] * (1 - float64(size[i])/float64(capacity))
			tie := mix64(o.Seed ^ uint64(v)<<20 ^ uint64(i))
			better := s > bestGain
			if !better && s == bestGain {
				// Tie-break toward the least-loaded partition for
				// balance, then by seeded hash for determinism.
				if size[i] != size[best] {
					better = size[i] < size[best]
				} else {
					better = tie > bestTie
				}
			}
			if better {
				best, bestGain, bestTie = i, s, tie
			}
		}
		vp[v] = ID(best)
		size[best]++
		for _, q := range touched {
			score[q] = 0
		}
		touched = touched[:0]
	}

	for v := 0; v < n; v++ {
		place(v)
	}
	for pass := 0; pass < o.RefinePasses; pass++ {
		for v := 0; v < n; v++ {
			// Remove and re-place with full knowledge of the final
			// placement; the vacated slot keeps staying-put eligible.
			size[vp[v]]--
			vp[v] = -1
			place(v)
		}
	}
	return assemble(g, p, w, vp)
}

// NewLDG partitions with the linear deterministic greedy streaming
// heuristic of Stanton & Kliot under default options (seed 0, 10%
// balance slack, no refinement). It produces fewer cut edges than
// hashing and serves as the "better partitioning" point in the ablation
// experiments.
func NewLDG(g *graph.Graph, p, w int) *Map {
	return NewLDGOpts(g, p, w, StreamOptions{})
}
