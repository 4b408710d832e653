// Package partition implements graph partitioning and the vertex
// classifications the paper's synchronization techniques depend on:
// machine-internal vs. machine-boundary vertices (Definition 1), partition-
// internal vs. partition-boundary vertices (Definition 4), and the four-way
// refinement used by dual-layer token passing (§5.3): p-internal, local
// boundary, remote boundary, and mixed boundary.
//
// The default partitioner is random hash partitioning, which is what the
// paper's evaluation uses (§7.1). Partitions are assigned to workers round-
// robin, Giraph's default placement.
package partition

import (
	"fmt"

	"serialgraph/internal/graph"
)

// ID identifies a partition: 0 <= ID < NumPartitions.
type ID int32

// Class is the dual-layer token passing vertex classification (§5.3).
type Class uint8

const (
	// PInternal vertices have every neighbor in their own partition; they
	// execute without holding any token.
	PInternal Class = iota
	// LocalBoundary vertices are m-internal but have a neighbor in another
	// partition of the same worker; they need the worker's local token.
	LocalBoundary
	// RemoteBoundary vertices have neighbors only on other workers'
	// partitions; they need the global token.
	RemoteBoundary
	// MixedBoundary vertices have neighbors both on their own worker and on
	// other workers; they need both tokens.
	MixedBoundary
)

func (c Class) String() string {
	switch c {
	case PInternal:
		return "p-internal"
	case LocalBoundary:
		return "local-boundary"
	case RemoteBoundary:
		return "remote-boundary"
	case MixedBoundary:
		return "mixed-boundary"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Map is an immutable assignment of vertices to partitions and partitions
// to workers.
type Map struct {
	P, W int

	vertexPart []ID    // len n
	partWorker []int32 // len P

	partVerts [][]graph.VertexID // vertices of each partition, ascending
}

// NewHash randomly hash-partitions the n vertices of g into p partitions
// spread over w workers (round-robin partition placement). The seed makes
// the assignment reproducible.
func NewHash(g *graph.Graph, p, w int, seed uint64) *Map {
	validate(g, p, w)
	vp := make([]ID, g.NumVertices())
	for v := range vp {
		vp[v] = ID(mix64(uint64(v)+seed*0x9e3779b97f4a7c15) % uint64(p))
	}
	return assemble(g, p, w, vp)
}

// mix64 is the splitmix64 finalizer: a fast, deterministic 64-bit mixer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewRange splits vertices into p contiguous ranges.
func NewRange(g *graph.Graph, p, w int) *Map {
	validate(g, p, w)
	n := g.NumVertices()
	vp := make([]ID, n)
	for v := 0; v < n; v++ {
		part := v * p / n
		if part >= p {
			part = p - 1
		}
		vp[v] = ID(part)
	}
	return assemble(g, p, w, vp)
}

// NewExplicit builds a Map from explicit assignments: vertexPart[v] is v's
// partition and partWorker[p] is p's worker. Used by tests and the paper's
// worked examples (Figures 4 and 5).
func NewExplicit(g *graph.Graph, vertexPart []ID, partWorker []int32, w int) *Map {
	if len(vertexPart) != g.NumVertices() {
		panic("partition: vertexPart length mismatch")
	}
	p := len(partWorker)
	m := &Map{P: p, W: w, vertexPart: vertexPart, partWorker: partWorker}
	m.partVerts = make([][]graph.VertexID, p)
	for v, pid := range vertexPart {
		if pid < 0 || int(pid) >= p {
			panic(fmt.Sprintf("partition: vertex %d has bad partition %d", v, pid))
		}
		m.partVerts[pid] = append(m.partVerts[pid], graph.VertexID(v))
	}
	for _, wk := range partWorker {
		if wk < 0 || int(wk) >= w {
			panic("partition: bad worker id")
		}
	}
	return m
}

func validate(g *graph.Graph, p, w int) {
	if p < 1 || w < 1 {
		panic(fmt.Sprintf("partition: need p >= 1 and w >= 1, got %d/%d", p, w))
	}
	if g.NumVertices() == 0 {
		panic("partition: empty graph")
	}
}

func assemble(g *graph.Graph, p, w int, vp []ID) *Map {
	pw := make([]int32, p)
	for i := range pw {
		pw[i] = int32(i % w) // round-robin, Giraph's default placement
	}
	return NewExplicit(g, vp, pw, w)
}

// PartitionOf returns the partition owning v.
func (m *Map) PartitionOf(v graph.VertexID) ID { return m.vertexPart[v] }

// WorkerOf returns the worker owning v.
func (m *Map) WorkerOf(v graph.VertexID) int { return int(m.partWorker[m.vertexPart[v]]) }

// WorkerOfPartition returns the worker that partition p is placed on.
func (m *Map) WorkerOfPartition(p ID) int { return int(m.partWorker[p]) }

// Vertices returns the vertices of partition p in ascending order. The
// slice aliases internal storage and must not be modified.
func (m *Map) Vertices(p ID) []graph.VertexID { return m.partVerts[p] }

// PartitionsOfWorker returns the partition IDs placed on worker w, in
// ascending order.
func (m *Map) PartitionsOfWorker(w int) []ID {
	var out []ID
	for p, wk := range m.partWorker {
		if int(wk) == w {
			out = append(out, ID(p))
		}
	}
	return out
}

// VerticesOfWorker returns the vertices placed on worker w: its
// partitions' vertices, partition by partition.
func (m *Map) VerticesOfWorker(w int) []graph.VertexID {
	var out []graph.VertexID
	for _, p := range m.PartitionsOfWorker(w) {
		out = append(out, m.partVerts[p]...)
	}
	return out
}

// Classify computes the dual-layer class of every vertex (§5.3), where
// "neighbors" means in-edge plus out-edge neighbors, per §3.1. The
// classification only needs existence flags, so both adjacency lists are
// scanned directly without deduplication — one allocation-free O(V+E)
// pass, cheap enough for the engine to report partition quality on every
// run.
func Classify(g *graph.Graph, m *Map) []Class {
	n := g.NumVertices()
	classes := make([]Class, n)
	for v := 0; v < n; v++ {
		u := graph.VertexID(v)
		myPart := m.PartitionOf(u)
		myWorker := m.WorkerOf(u)
		sameWorkerOtherPart := false
		otherWorker := false
		samePart := false
		note := func(nb graph.VertexID) {
			switch {
			case m.PartitionOf(nb) == myPart:
				samePart = true
			case m.WorkerOf(nb) == myWorker:
				sameWorkerOtherPart = true
			default:
				otherWorker = true
			}
		}
		for _, nb := range g.OutNeighbors(u) {
			note(nb)
		}
		for _, nb := range g.InNeighbors(u) {
			note(nb)
		}
		switch {
		case !sameWorkerOtherPart && !otherWorker:
			classes[v] = PInternal
		case !otherWorker:
			classes[v] = LocalBoundary
		case !sameWorkerOtherPart && !samePart:
			classes[v] = RemoteBoundary
		default:
			classes[v] = MixedBoundary
		}
	}
	return classes
}

// IsMBoundary reports whether u has a neighbor on another worker
// (Definition 1).
func IsMBoundary(g *graph.Graph, m *Map, u graph.VertexID) bool {
	w := m.WorkerOf(u)
	found := false
	g.Neighbors(u, func(nb graph.VertexID) {
		if m.WorkerOf(nb) != w {
			found = true
		}
	})
	return found
}

// IsPBoundary reports whether u has a neighbor in another partition
// (Definition 4).
func IsPBoundary(g *graph.Graph, m *Map, u graph.VertexID) bool {
	p := m.PartitionOf(u)
	found := false
	g.Neighbors(u, func(nb graph.VertexID) {
		if m.PartitionOf(nb) != p {
			found = true
		}
	})
	return found
}

// PBoundaryFlags computes IsPBoundary for every vertex in one pass over
// the edge set. The per-vertex predicate walks both adjacency lists each
// call; when a caller needs the answer for every vertex every superstep
// (the vertex-locking engine does), the precomputed form turns an
// O(edges) cost per superstep into a slice load per vertex.
func PBoundaryFlags(g *graph.Graph, m *Map) []bool {
	n := g.NumVertices()
	flags := make([]bool, n)
	for v := 0; v < n; v++ {
		u := graph.VertexID(v)
		pu := m.PartitionOf(u)
		for _, nb := range g.OutNeighbors(u) {
			if m.PartitionOf(nb) != pu {
				flags[u] = true
				flags[nb] = true
			}
		}
	}
	return flags
}

// Neighbors returns, for every partition, the sorted set of other
// partitions that share at least one edge with it (ignoring direction).
// These pairs are exactly the "virtual partition edges" of Figure 5 that
// carry Chandy–Misra forks in partition-based distributed locking.
func (m *Map) Neighbors(g *graph.Graph) [][]ID {
	sets := make([]map[ID]struct{}, m.P)
	for i := range sets {
		sets[i] = make(map[ID]struct{})
	}
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		u := graph.VertexID(v)
		pu := m.PartitionOf(u)
		for _, nb := range g.OutNeighbors(u) {
			pv := m.PartitionOf(nb)
			if pu != pv {
				sets[pu][pv] = struct{}{}
				sets[pv][pu] = struct{}{}
			}
		}
	}
	out := make([][]ID, m.P)
	for i, s := range sets {
		lst := make([]ID, 0, len(s))
		for p := range s {
			lst = append(lst, p)
		}
		sortIDs(lst)
		out[i] = lst
	}
	return out
}

func sortIDs(a []ID) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// CutStats summarizes partition quality.
type CutStats struct {
	CutEdges    int     // directed edges crossing partitions
	CutFraction float64 // CutEdges / total edges
	MaxLoad     int     // largest partition size (vertices)
	MinLoad     int
}

// Cut computes partition quality statistics.
func Cut(g *graph.Graph, m *Map) CutStats {
	var s CutStats
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		u := graph.VertexID(v)
		pu := m.PartitionOf(u)
		for _, nb := range g.OutNeighbors(u) {
			if m.PartitionOf(nb) != pu {
				s.CutEdges++
			}
		}
	}
	if g.NumEdges() > 0 {
		s.CutFraction = float64(s.CutEdges) / float64(g.NumEdges())
	}
	s.MinLoad = n
	for p := 0; p < m.P; p++ {
		l := len(m.Vertices(ID(p)))
		if l > s.MaxLoad {
			s.MaxLoad = l
		}
		if l < s.MinLoad {
			s.MinLoad = l
		}
	}
	return s
}
