package wire

// protocol.go encodes the control payloads between the multi-process
// coordinator and its worker processes (engine.Coordinate, engine.Work):
// the handshake, the job spec, one StepStart/StepDone exchange per
// superstep, and the final value and report collection. The superstep
// barrier between worker processes is not a payload here: it is built
// from the engine's own flush markers and acks (cluster.Endpoint.Barrier).
// Everything is explicit fixed binary — varints and length-prefixed
// strings, no gob — so the frames are deterministic, golden-testable, and
// safe to parse from untrusted bytes (every length is validated before
// allocation).

import (
	"encoding/binary"
	"fmt"
	"math"

	"serialgraph/internal/cluster"
	"serialgraph/internal/metrics"
)

// Hello opens a worker process's connection to the coordinator: the
// protocol version and the worker's data-plane listen address.
type Hello struct {
	Version int32
	Addr    string
}

// Job is the coordinator's run spec: enough for every worker process to
// deterministically rebuild the same graph, program and partition map,
// run the same engine configuration, and find its peers. The engine
// builds the run options from its Config and turns them back into one.
type Job struct {
	Alg              string // "sssp" | "pagerank" | "coloring" | "wcc"
	GraphPath        string // load a saved graph...
	Family           string // ...or generate one from a family
	N                int32  // generated-graph size
	Undirected       bool   // symmetrize after loading/generating
	Workers          int32  // worker-process count
	PartsPerWorker   int32
	ThreadsPerWorker int32
	Mode             uint8 // engine.Mode
	Sync             uint8 // engine.Sync
	MaxSupersteps    int32
	Seed             uint64   // partitioner seed (and generator seed)
	Source           int32    // SSSP source
	Eps              float64  // PageRank tolerance
	You              int32    // the recipient's worker ID
	Peers            []string // data-plane addresses indexed by worker ID
	// MsgMemoryBudget bounds each worker process's buffered inbound
	// message bytes (0 = unbounded); overflow spills to disk.
	MsgMemoryBudget int64
	// Partitioner names the vertex-placement strategy ("" = hash); every
	// worker rebuilds the identical map from it deterministically.
	Partitioner string
}

// StepStart dispatches one superstep with the previous step's merged
// aggregator values (keys sorted, so the frame is deterministic).
type StepStart struct {
	Superstep int32
	AggKeys   []string
	AggVals   []float64
}

// StepDone reports one worker's superstep at the barrier: unhalted
// vertices, pending messages, executions, and its local aggregator
// contributions.
type StepDone struct {
	Superstep  int32
	Unhalted   int64
	Pending    int64
	Executions int64
	AggKeys    []string
	AggVals    []float64
}

// Report is a worker process's run totals, shipped after its values: the
// transport's traffic counters and the metrics registry snapshot. The
// coordinator sums them into the run's Result.
type Report struct {
	Net     cluster.Snapshot
	Metrics metrics.Snapshot
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func readString(b []byte) (string, []byte, error) {
	size, n := binary.Uvarint(b)
	if n <= 0 {
		return "", nil, ErrTruncated
	}
	b = b[n:]
	if size > uint64(len(b)) {
		return "", nil, ErrTruncated
	}
	return string(b[:size]), b[size:], nil
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func readBool(b []byte) (bool, []byte, error) {
	if len(b) < 1 {
		return false, nil, ErrTruncated
	}
	if b[0] > 1 {
		return false, nil, ErrCorrupt
	}
	return b[0] == 1, b[1:], nil
}

func readZigzag32(b []byte) (int32, []byte, error) {
	v, n := cluster.Zigzag(b)
	if n <= 0 {
		return 0, nil, ErrTruncated
	}
	if v < math.MinInt32 || v > math.MaxInt32 {
		return 0, nil, ErrCorrupt
	}
	return int32(v), b[n:], nil
}

func readZigzag64(b []byte) (int64, []byte, error) {
	v, n := cluster.Zigzag(b)
	if n <= 0 {
		return 0, nil, ErrTruncated
	}
	return v, b[n:], nil
}

func appendFloat(dst []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
}

func readFloat(b []byte) (float64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, ErrTruncated
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b)), b[8:], nil
}

// aggregates are encoded as count, then (key, value) pairs. Callers keep
// keys sorted so encoding is deterministic.
func appendAggs(dst []byte, keys []string, vals []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for i, k := range keys {
		dst = appendString(dst, k)
		dst = appendFloat(dst, vals[i])
	}
	return dst
}

func readAggs(b []byte) (keys []string, vals []float64, rest []byte, err error) {
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, nil, nil, ErrTruncated
	}
	b = b[n:]
	// Each pair takes at least 9 bytes (empty key + float64).
	if count > uint64(len(b))/9+1 {
		return nil, nil, nil, fmt.Errorf("%w: aggregate count %d exceeds payload", ErrCorrupt, count)
	}
	keys = make([]string, 0, count)
	vals = make([]float64, 0, count)
	for i := uint64(0); i < count; i++ {
		var k string
		var v float64
		if k, b, err = readString(b); err != nil {
			return nil, nil, nil, err
		}
		if v, b, err = readFloat(b); err != nil {
			return nil, nil, nil, err
		}
		keys = append(keys, k)
		vals = append(vals, v)
	}
	return keys, vals, b, nil
}

// AppendHello encodes h.
func AppendHello(dst []byte, h Hello) []byte {
	dst = cluster.AppendZigzag(dst, int64(h.Version))
	return appendString(dst, h.Addr)
}

// DecodeHello parses a Hello payload.
func DecodeHello(b []byte) (Hello, error) {
	var h Hello
	var err error
	if h.Version, b, err = readZigzag32(b); err != nil {
		return h, err
	}
	if h.Addr, b, err = readString(b); err != nil {
		return h, err
	}
	if len(b) != 0 {
		return h, fmt.Errorf("%w: trailing bytes after hello", ErrCorrupt)
	}
	return h, nil
}

// AppendJob encodes j.
func AppendJob(dst []byte, j Job) []byte {
	dst = appendString(dst, j.Alg)
	dst = appendString(dst, j.GraphPath)
	dst = appendString(dst, j.Family)
	dst = cluster.AppendZigzag(dst, int64(j.N))
	dst = appendBool(dst, j.Undirected)
	dst = cluster.AppendZigzag(dst, int64(j.Workers))
	dst = cluster.AppendZigzag(dst, int64(j.PartsPerWorker))
	dst = cluster.AppendZigzag(dst, int64(j.ThreadsPerWorker))
	dst = append(dst, j.Mode, j.Sync)
	dst = cluster.AppendZigzag(dst, int64(j.MaxSupersteps))
	dst = binary.AppendUvarint(dst, j.Seed)
	dst = cluster.AppendZigzag(dst, int64(j.Source))
	dst = appendFloat(dst, j.Eps)
	dst = cluster.AppendZigzag(dst, int64(j.You))
	dst = binary.AppendUvarint(dst, uint64(len(j.Peers)))
	for _, p := range j.Peers {
		dst = appendString(dst, p)
	}
	dst = cluster.AppendZigzag(dst, j.MsgMemoryBudget)
	return appendString(dst, j.Partitioner)
}

// DecodeJob parses a Job payload.
func DecodeJob(b []byte) (Job, error) {
	var j Job
	var err error
	if j.Alg, b, err = readString(b); err != nil {
		return j, err
	}
	if j.GraphPath, b, err = readString(b); err != nil {
		return j, err
	}
	if j.Family, b, err = readString(b); err != nil {
		return j, err
	}
	if j.N, b, err = readZigzag32(b); err != nil {
		return j, err
	}
	if j.Undirected, b, err = readBool(b); err != nil {
		return j, err
	}
	if j.Workers, b, err = readZigzag32(b); err != nil {
		return j, err
	}
	if j.PartsPerWorker, b, err = readZigzag32(b); err != nil {
		return j, err
	}
	if j.ThreadsPerWorker, b, err = readZigzag32(b); err != nil {
		return j, err
	}
	if len(b) < 2 {
		return j, ErrTruncated
	}
	j.Mode, j.Sync, b = b[0], b[1], b[2:]
	if j.MaxSupersteps, b, err = readZigzag32(b); err != nil {
		return j, err
	}
	seed, n := binary.Uvarint(b)
	if n <= 0 {
		return j, ErrTruncated
	}
	j.Seed = seed
	b = b[n:]
	if j.Source, b, err = readZigzag32(b); err != nil {
		return j, err
	}
	if j.Eps, b, err = readFloat(b); err != nil {
		return j, err
	}
	if j.You, b, err = readZigzag32(b); err != nil {
		return j, err
	}
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return j, ErrTruncated
	}
	b = b[n:]
	if count > uint64(len(b))+1 {
		return j, fmt.Errorf("%w: peer count %d exceeds payload", ErrCorrupt, count)
	}
	j.Peers = make([]string, 0, count)
	for i := uint64(0); i < count; i++ {
		var p string
		if p, b, err = readString(b); err != nil {
			return j, err
		}
		j.Peers = append(j.Peers, p)
	}
	if j.MsgMemoryBudget, b, err = readZigzag64(b); err != nil {
		return j, err
	}
	if j.Partitioner, b, err = readString(b); err != nil {
		return j, err
	}
	if len(b) != 0 {
		return j, fmt.Errorf("%w: trailing bytes after job", ErrCorrupt)
	}
	return j, nil
}

// AppendStepStart encodes s. Aggregator keys must be sorted.
func AppendStepStart(dst []byte, s StepStart) []byte {
	dst = cluster.AppendZigzag(dst, int64(s.Superstep))
	return appendAggs(dst, s.AggKeys, s.AggVals)
}

// DecodeStepStart parses a StepStart payload.
func DecodeStepStart(b []byte) (StepStart, error) {
	var s StepStart
	var err error
	if s.Superstep, b, err = readZigzag32(b); err != nil {
		return s, err
	}
	if s.AggKeys, s.AggVals, b, err = readAggs(b); err != nil {
		return s, err
	}
	if len(b) != 0 {
		return s, fmt.Errorf("%w: trailing bytes after step-start", ErrCorrupt)
	}
	return s, nil
}

// AppendStepDone encodes s. Aggregator keys must be sorted.
func AppendStepDone(dst []byte, s StepDone) []byte {
	dst = cluster.AppendZigzag(dst, int64(s.Superstep))
	dst = cluster.AppendZigzag(dst, s.Unhalted)
	dst = cluster.AppendZigzag(dst, s.Pending)
	dst = cluster.AppendZigzag(dst, s.Executions)
	return appendAggs(dst, s.AggKeys, s.AggVals)
}

// DecodeStepDone parses a StepDone payload.
func DecodeStepDone(b []byte) (StepDone, error) {
	var s StepDone
	var err error
	if s.Superstep, b, err = readZigzag32(b); err != nil {
		return s, err
	}
	if s.Unhalted, b, err = readZigzag64(b); err != nil {
		return s, err
	}
	if s.Pending, b, err = readZigzag64(b); err != nil {
		return s, err
	}
	if s.Executions, b, err = readZigzag64(b); err != nil {
		return s, err
	}
	if s.AggKeys, s.AggVals, b, err = readAggs(b); err != nil {
		return s, err
	}
	if len(b) != 0 {
		return s, fmt.Errorf("%w: trailing bytes after step-done", ErrCorrupt)
	}
	return s, nil
}

// reportFields lists a report's scalars in wire order: the traffic
// counters, then the metrics counters, phase times and histogram totals.
func reportFields(r *Report) []*int64 {
	n, m := &r.Net, &r.Metrics
	fs := []*int64{&n.DataMessages, &n.DataBytes, &n.ControlMessages, &n.ControlBytes,
		&n.AckMessages, &n.DroppedMessages, &n.WireBytesSent, &n.WireBytesReceived}
	for i := range m.Counters {
		fs = append(fs, &m.Counters[i])
	}
	for i := range m.PhaseNs {
		fs = append(fs, &m.PhaseNs[i])
	}
	for i := range m.Hists {
		h := &m.Hists[i]
		fs = append(fs, &h.Count, &h.Sum, &h.Max)
	}
	return fs
}

// AppendValues encodes a worker's final values — count, then each value,
// in the order of the worker's vertices — followed by its report: the
// reportFields as zigzag varints, then every histogram's
// metrics.HistBuckets bucket counts the same way.
func AppendValues[V any](dst []byte, c MsgCodec[V], vals []V, rep Report) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	for _, v := range vals {
		dst = c.Append(dst, v)
	}
	for _, f := range reportFields(&rep) {
		dst = cluster.AppendZigzag(dst, *f)
	}
	for _, h := range rep.Metrics.Hists {
		for k := range metrics.HistBuckets {
			dst = cluster.AppendZigzag(dst, h.Buckets[k])
		}
	}
	return dst
}

// DecodeValues parses a FrameValues payload.
func DecodeValues[V any](c MsgCodec[V], b []byte) ([]V, Report, error) {
	var rep Report
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, rep, ErrTruncated
	}
	b = b[n:]
	if count > uint64(len(b))+1 {
		return nil, rep, fmt.Errorf("%w: value count %d exceeds payload", ErrCorrupt, count)
	}
	vals := make([]V, 0, count)
	for i := uint64(0); i < count; i++ {
		v, n, err := c.Read(b)
		if err != nil {
			return nil, rep, err
		}
		b = b[n:]
		vals = append(vals, v)
	}
	var err error
	for _, f := range reportFields(&rep) {
		if *f, b, err = readZigzag64(b); err != nil {
			return nil, rep, err
		}
	}
	for i := range rep.Metrics.Hists {
		h := &rep.Metrics.Hists[i]
		for k := range metrics.HistBuckets {
			var n int64
			if n, b, err = readZigzag64(b); err != nil {
				return nil, rep, err
			}
			if n != 0 { // snapshots keep only non-empty buckets
				if h.Buckets == nil {
					h.Buckets = make(map[int]int64)
				}
				h.Buckets[k] = n
			}
		}
	}
	if len(b) != 0 {
		return nil, rep, fmt.Errorf("%w: trailing bytes after values", ErrCorrupt)
	}
	return vals, rep, nil
}
