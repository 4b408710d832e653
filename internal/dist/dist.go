// Package dist runs a real multi-process deployment: one coordinator
// process and N worker processes connected by TCP, speaking the frame
// protocol of internal/cluster + internal/wire. Unlike the in-process
// engine — whose master and workers share vertex values, halt flags, and
// aggregator maps — nothing here crosses a process boundary except wire
// frames, so this is the deployment shape the paper's systems (Giraph,
// GraphLab) actually have.
//
// The driver implements the BSP model with no synchronization technique
// (the serializable techniques lean on shared-memory lock managers and
// stay in-process for now). Its superstep loop mirrors the engine's BSP
// path operation for operation — same hash partitioning, same message
// store semantics (reused verbatim from internal/msgstore), same
// execute-if-unhalted-or-has-new rule, same halt condition (no unhalted
// vertices and no pending messages), same aggregator merge timing — so a
// distributed run's results are bitwise identical to an in-process run
// with the same worker count and seed. The cross-process conformance test
// in dist_test.go holds it to that.
//
// Protocol (control plane, worker <-> coordinator):
//
//	worker -> Hello{version, -1, dataAddr}
//	coord  -> Job{alg, graph spec, workers, you, peers}
//	loop:   coord -> StepStart{s, merged aggs}
//	        worker -> StepDone{s, unhalted, pending, counters, local aggs}
//	coord  -> Finish{converged, supersteps}
//	worker -> Values{owned (id, value) pairs}
//
// Data plane (worker <-> worker, one conn per ordered pair): Data frames
// carrying combiner-aware message batches, then one Barrier frame per
// superstep. FIFO stream order makes the barrier the proof that every
// data frame the sender emitted for the superstep has arrived, so no
// acks are needed.
package dist

import (
	"bufio"
	"fmt"
	"net"
	"sort"
	"sync/atomic"
	"time"

	"serialgraph/internal/cluster"
	"serialgraph/internal/generate"
	"serialgraph/internal/graph"
	"serialgraph/internal/wire"
)

// Job aliases the wire-level job spec; the coordinator fills it once and
// every worker deterministically derives the same run from it.
type Job = wire.Job

// DialTimeout bounds connection establishment (workers retry-dial the
// coordinator and each other inside this window, so process start order
// does not matter).
const DialTimeout = 10 * time.Second

// Result summarizes a distributed run on the coordinator.
type Result struct {
	Converged  bool
	Supersteps int
	// Executions totals vertex executions across all workers.
	Executions int64
	// DataBatches/DataBytes are the simulated ledger of worker-to-worker
	// batches (same accounting as cluster.Stats); WireBytes is the true
	// encoded bytes written to data-plane sockets.
	DataBatches int64
	DataBytes   int64
	WireBytes   int64
}

// frameConn wraps one TCP connection with buffered frame IO and wire-byte
// accounting. Writes are single-goroutine per conn (the protocol gives
// every conn exactly one writer); reads likewise.
type frameConn struct {
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	buf     []byte
	wireOut atomic.Int64
	wireIn  atomic.Int64
}

func newFrameConn(c net.Conn) *frameConn {
	return &frameConn{
		conn: c,
		br:   bufio.NewReaderSize(c, 64<<10),
		bw:   bufio.NewWriterSize(c, 64<<10),
	}
}

// write encodes f into the connection's buffer without flushing; callers
// batch frames and flush() at protocol points (control messages flush
// immediately via writeFlush).
func (fc *frameConn) write(f *cluster.Frame) error {
	fc.buf = cluster.AppendFrame(fc.buf[:0], f)
	fc.wireOut.Add(int64(len(fc.buf)))
	_, err := fc.bw.Write(fc.buf)
	return err
}

func (fc *frameConn) flush() error { return fc.bw.Flush() }

func (fc *frameConn) writeFlush(f *cluster.Frame) error {
	if err := fc.write(f); err != nil {
		return err
	}
	return fc.flush()
}

func (fc *frameConn) read() (cluster.Frame, error) {
	f, n, err := cluster.ReadFrame(fc.br)
	if err != nil {
		return f, err
	}
	fc.wireIn.Add(int64(n))
	return f, nil
}

func (fc *frameConn) close() error { return fc.conn.Close() }

// closeWrite half-closes the connection so the peer's read pump sees EOF
// after draining everything already sent.
func (fc *frameConn) closeWrite() {
	if tc, ok := fc.conn.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
}

// expect reads one frame and checks its type.
func (fc *frameConn) expect(ftype byte) (cluster.Frame, error) {
	f, err := fc.read()
	if err != nil {
		return f, err
	}
	if f.Type != ftype {
		return f, fmt.Errorf("dist: expected frame 0x%02x, got 0x%02x", ftype, f.Type)
	}
	return f, nil
}

// BuildGraph deterministically reconstructs the job's graph: a saved
// graph file when GraphPath is set, else a generator family. Every
// process builds the identical graph, which is what lets the partition
// map be derived locally instead of shipped.
func BuildGraph(job Job) (*graph.Graph, error) {
	var g *graph.Graph
	switch {
	case job.GraphPath != "":
		var err error
		g, err = graph.LoadFile(job.GraphPath)
		if err != nil {
			return nil, err
		}
	case job.Family != "":
		g = generate.Family(job.Family, int(job.N), int64(job.Seed))
	default:
		return nil, fmt.Errorf("dist: job has neither GraphPath nor Family")
	}
	if job.Undirected {
		g = graph.Symmetrize(g)
	}
	return g, nil
}

// sortedAggs flattens an aggregator map into sorted parallel slices so
// the frames are deterministic.
func sortedAggs(m map[string]float64) ([]string, []float64) {
	if len(m) == 0 {
		return nil, nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	vals := make([]float64, len(keys))
	for i, k := range keys {
		vals[i] = m[k]
	}
	return keys, vals
}

func aggMap(keys []string, vals []float64) map[string]float64 {
	m := make(map[string]float64, len(keys))
	for i, k := range keys {
		m[k] = vals[i]
	}
	return m
}
