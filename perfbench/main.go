// Command perfbench is serialgraph's end-to-end benchmark. It runs one
// workload (a catalog graph analog, an algorithm and a serializability
// technique) as a sequence of jobs for a fixed time, checks every job's
// answer, and prints each metric named in BENCHMARK.json with its unit,
// ending with one JSON result line.
//
//	perfbench --workload pagerank-plock --seed 53 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics of untraced jobs. --trace 1
// reports the per-layer metrics: from traced jobs (spans around each
// call into the program, the job's metrics snapshot, and the
// serializability history check), from untraced jobs run alongside them
// (for the tracing overhead), and from layer microbenchmarks. Every job runs
// in a child process of this binary ("perfbench job ..."), so each job's
// peak RSS is its own.
//
// perfbench/run.py builds and runs this program from the repository root;
// spec.json describes the workloads and metrics. The self-test, go test in
// this directory, runs every workload at tiny scale.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"serialgraph"
	"serialgraph/internal/generate"
)

const (
	minJobs    = 3                // per kind of job in one run, however short --seconds is
	jobTimeout = 90 * time.Second // a job still running then counts as failed

	// A run's inputs are inputsPerRun graphs generated from the run seed s,
	// with generator seeds s + k×inputSeedStride. Graphs of one catalog
	// analog differ in structure from seed to seed, and with it in run time
	// and traffic; a median over many inputs keeps a run's figures steady
	// across seeds. Input 0 is the seed's own graph.
	inputsPerRun    = 16
	inputSeedStride = 1_000_003
)

func inputSeed(runSeed int64, k int) int64 { return runSeed + int64(k)*inputSeedStride }

func main() {
	if len(os.Args) > 1 && os.Args[1] == "job" {
		os.Exit(jobMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// procs is the GOMAXPROCS every process of the benchmark runs with: at most
// two, so a larger machine runs the jobs with the parallelism the bounds in
// BENCHMARK.json were set with.
func procs() int { return min(2, runtime.NumCPU()) }

type jobFlags struct {
	workload string
	seed     int64
	scale    float64
	traced   bool
	ref      string
	corrupt  bool
}

func (f *jobFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&f.workload, "workload", "", "workload name (see BENCHMARK.json)")
	fs.Int64Var(&f.seed, "seed", -1, "workload seed: feeds the graph generator and the partition hash; negative selects the dataset's catalog seed")
	fs.Float64Var(&f.scale, "scale", 1, "multiplies the catalog graph size (the self-test runs tiny graphs)")
	fs.BoolVar(&f.corrupt, "corrupt", false, "perturb every job's answer before its check (self-test of failure accounting)")
}

func (f jobFlags) args() []string {
	return []string{"job", "--workload", f.workload, "--seed", strconv.FormatInt(f.seed, 10),
		"--scale", strconv.FormatFloat(f.scale, 'g', -1, 64), "--traced=" + strconv.FormatBool(f.traced),
		"--ref", f.ref, "--corrupt=" + strconv.FormatBool(f.corrupt)}
}

// jobMain is the child process: it runs one job and prints its result as
// one JSON line.
func jobMain(args []string, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(procs())
	fs := flag.NewFlagSet("perfbench job", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var f jobFlags
	f.register(fs)
	fs.BoolVar(&f.traced, "traced", false, "trace the job")
	fs.StringVar(&f.ref, "ref", "", "file of bitwise reference values")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	w, err := spec.workload(f.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	jr := runJob(jobOpts{w: w, cluster: spec.Cluster, seed: f.seed, scale: f.scale,
		traced: f.traced, refPath: f.ref, corrupt: f.corrupt})
	b, err := json.Marshal(jr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

// spawnJob runs one job in a child process. A child that crashes, hangs or
// prints no result yields a failed job.
func spawnJob(f jobFlags, stderr io.Writer) jobResult {
	exe, err := os.Executable()
	if err != nil {
		return jobResult{Err: err.Error()}
	}
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, f.args()...)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return jobResult{Err: fmt.Sprintf("job process: %v", err)}
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var jr jobResult
	if err := json.Unmarshal(lines[len(lines)-1], &jr); err != nil {
		return jobResult{Err: fmt.Sprintf("job process printed no result: %v", err)}
	}
	return jr
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(procs())
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var f jobFlags
	f.register(fs)
	seconds := fs.Float64("seconds", 10, "how long to run jobs")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	benchPath := fs.String("bench", "BENCHMARK.json", "the benchmark definition naming the metrics to print")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := run(f, *seconds, *trace, *benchPath, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func run(f jobFlags, seconds float64, trace int, benchPath string, stdout, stderr io.Writer) error {
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if !(seconds > 0) || !(f.scale > 0) {
		return errors.New("--seconds and --scale must be positive")
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	bench, err := loadBenchmarkFile(benchPath)
	if err != nil {
		return err
	}
	w, err := spec.workload(f.workload)
	if err != nil {
		return err
	}
	if f.seed < 0 {
		d, err := generate.ByName(w.Dataset)
		if err != nil {
			return err
		}
		f.seed = d.Seed
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	fmt.Fprintf(stdout, "workload %s: %s %s on %s, %s/%s/%s, seed %d (%d inputs), scale %g, GOMAXPROCS %d\n",
		w.Name, w.Engine, w.Algorithm, w.Dataset, w.Mode, w.Sync, w.Transport, f.seed, inputsPerRun, f.scale, procs())

	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	values := map[string]float64{}
	if trace == 1 {
		g, err := buildGraph(w, inputSeed(f.seed, 0), f.scale)
		if err != nil {
			return err
		}
		if w.Algorithm == "coloring" {
			g = serialgraph.Undirected(g)
		}
		if values, err = runMicro(spec, w, g, inputSeed(f.seed, 0)); err != nil {
			return fmt.Errorf("microbenchmarks: %w", err)
		}
	}
	plain, traced, err := runJobs(spec, w, f, trace == 1, deadline, tmp, stdout, stderr)
	if err != nil {
		return err
	}
	all := append(append([]jobResult(nil), plain...), traced...)
	failed := 0
	for _, jr := range all {
		if jr.Err != "" {
			failed++
		}
	}
	if w.Check == "residual" {
		fmt.Fprintf(stdout, "residual: max %.4g over %d jobs (bound %g)\n",
			maxOf(all, func(j jobResult) float64 { return j.Residual }), len(all), w.MaxResidual)
	}
	printTiming(stdout, "setup_s", plain, func(j jobResult) float64 { return j.SetupS })
	printTiming(stdout, "run_s", plain, func(j jobResult) float64 { return j.RunS })

	values["setup_s"] = medianOver(plain, func(j jobResult) float64 { return j.SetupS })
	values["run_s"] = medianOver(plain, func(j jobResult) float64 { return j.RunS })
	values["peak_rss_mb"] = medianOver(plain, func(j jobResult) float64 { return j.PeakRSSMB })
	values["net_msgs"] = medianOver(plain, func(j jobResult) float64 { return float64(j.NetMsgs) })
	values["net_bytes"] = medianOver(plain, func(j jobResult) float64 { return float64(j.NetBytes) })
	defs := bench.EndToEnd
	if trace == 1 {
		defs = bench.PerLayer
		for _, k := range layerKeys(traced) {
			values[k] = medianOver(traced, func(j jobResult) float64 { return j.Layer[k] })
		}
		values["trace.overhead_frac"] = medianOver(traced, func(j jobResult) float64 { return j.RunS })/values["run_s"] - 1
		values["fail_rate"] = float64(failed) / float64(len(all))
		printSpans(stdout, traced)
		printMix(stdout, w, values)
	}
	fmt.Fprintf(stdout, "jobs: %d attempted, %d failed; each metric is the median over jobs\n", len(all), failed)
	return printResult(stdout, defs, values, len(all), failed)
}

// runJobs runs jobs until the deadline, cycling through the run's inputs.
// With tracing, traced and untraced jobs alternate on the same input, so
// both see the same inputs and machine state.
func runJobs(spec *benchSpec, w *workload, f jobFlags, tracing bool, deadline time.Time, tmp string,
	stdout, stderr io.Writer) (plain, traced []jobResult, err error) {
	refs := map[int]string{} // input -> bitwise reference file, made on first use
	for i := 0; ; i++ {
		enough := len(plain) >= minJobs && (!tracing || len(traced) >= minJobs)
		if enough && time.Now().After(deadline) {
			return plain, traced, nil
		}
		jf := f
		jf.traced = tracing && i%2 == 1
		k := i % inputsPerRun
		if tracing {
			k = i / 2 % inputsPerRun
		}
		jf.seed = inputSeed(f.seed, k)
		if w.Check == "bitwise-bsp" {
			if refs[k] == "" {
				path := filepath.Join(tmp, fmt.Sprintf("reference-%d.bin", k))
				if err := writeReference(spec, w, jf.seed, f.scale, path); err != nil {
					return nil, nil, fmt.Errorf("bitwise reference of input %d: %w", k, err)
				}
				refs[k] = path
			}
			jf.ref = refs[k]
		}
		jr := spawnJob(jf, stderr)
		status := "ok"
		if jr.Err != "" {
			status = "FAILED: " + jr.Err
		}
		fmt.Fprintf(stdout, "job %d seed=%d traced=%v setup_s=%.4f run_s=%.4f peak_rss_mb=%.1f net_msgs=%d net_bytes=%d %s\n",
			i, jf.seed, jf.traced, jr.SetupS, jr.RunS, jr.PeakRSSMB, jr.NetMsgs, jr.NetBytes, status)
		if jf.traced {
			traced = append(traced, jr)
		} else {
			plain = append(plain, jr)
		}
	}
}

// writeReference runs the untimed bitwise reference of one input and
// writes its values to path.
func writeReference(spec *benchSpec, w *workload, seed int64, scale float64, path string) error {
	g, err := buildGraph(w, seed, scale)
	if err != nil {
		return err
	}
	ref, err := bitwiseReference(w, spec.Cluster, g, seed)
	if err != nil {
		return err
	}
	return writeFloats(path, ref)
}

// printResult prints every metric of defs as a text line and then the JSON
// result line, which must come last.
func printResult(stdout io.Writer, defs []metricDef, values map[string]float64, attempted, failed int) error {
	result := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]map[string]any{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("no value for metric %s", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		fmt.Fprintf(stdout, "metric %s = %.6g %s\n", d.Name, v, d.Unit)
		result.Metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	b, err := json.Marshal(result)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return nil
}

// printTiming prints a timing's median and the highest percentile with at
// least ten jobs beyond it, with the job count.
func printTiming(w io.Writer, name string, jobs []jobResult, f func(jobResult) float64) {
	var v []float64
	for _, j := range jobs {
		if j.RunS > 0 {
			v = append(v, f(j))
		}
	}
	fmt.Fprintf(w, "timing %s: n=%d median=%.4f", name, len(v), median(v))
	if n := len(v); n > 10 {
		sort.Float64s(v)
		fmt.Fprintf(w, " p%d=%.4f", 100*(n-10)/n, v[n-11])
	}
	fmt.Fprintln(w)
}

// layerKeys lists the per-layer metric names the traced jobs reported.
func layerKeys(jobs []jobResult) []string {
	seen := map[string]bool{}
	var keys []string
	for _, j := range jobs {
		for k := range j.Layer {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// printSpans prints, per span name, the median duration and self time over
// the traced jobs that completed.
func printSpans(w io.Writer, jobs []jobResult) {
	type acc struct {
		parent    string
		dur, self []float64
	}
	var order []string
	by := map[string]*acc{}
	for _, j := range jobs {
		self := selfTimes(j.Spans)
		for i, s := range j.Spans {
			a := by[s.Name]
			if a == nil {
				a = &acc{parent: "-"}
				if s.Parent >= 0 {
					a.parent = j.Spans[s.Parent].Name
				}
				by[s.Name] = a
				order = append(order, s.Name)
			}
			a.dur = append(a.dur, s.End-s.Start)
			a.self = append(a.self, self[i])
		}
	}
	for _, name := range order {
		a := by[name]
		fmt.Fprintf(w, "span %-16s parent=%-6s n=%d median_s=%.4f self_s=%.4f\n",
			name, a.parent, len(a.dur), median(a.dur), median(a.self))
	}
}

// printMix confirms the workload's predicted layer mix on the traced
// run's per-layer medians.
func printMix(w io.Writer, wl *workload, values map[string]float64) {
	for _, m := range wl.Mix {
		bound, desc := m.Value, strconv.FormatFloat(m.Value, 'g', -1, 64)
		if m.Times != "" {
			bound *= values[m.Times]
			desc += " x " + m.Times
		}
		v := values[m.Metric]
		var holds bool
		switch m.Op {
		case ">":
			holds = v > bound
		case ">=":
			holds = v >= bound
		case "==":
			holds = v == bound
		}
		verdict := "holds"
		if !holds {
			verdict = "DOES NOT HOLD"
		}
		fmt.Fprintf(w, "mix %s %s %s: %s (%.6g vs %.6g)\n", m.Metric, m.Op, desc, verdict, v, bound)
	}
}

// medianOver is the median of f over the jobs whose run completed.
func medianOver(jobs []jobResult, f func(jobResult) float64) float64 {
	var v []float64
	for _, j := range jobs {
		if j.RunS > 0 {
			v = append(v, f(j))
		}
	}
	return median(v)
}

func maxOf(jobs []jobResult, f func(jobResult) float64) float64 {
	m := 0.0
	for _, j := range jobs {
		m = max(m, f(j))
	}
	return m
}

// median of v; 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
