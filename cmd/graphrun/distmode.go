package main

// Multi-process mode: `graphrun -listen` runs the coordinator,
// `graphrun -join` runs one worker process. A real run over TCP loopback:
//
//	graphrun -listen 127.0.0.1:7400 -workers 2 \
//	    -alg sssp -graph g.bin -model async -technique partition-locking -o dist.txt &
//	graphrun -join 127.0.0.1:7400 &
//	graphrun -join 127.0.0.1:7400
//
// The coordinator prints its bound address on startup ("coordinator:
// listening on ..."), so -listen 127.0.0.1:0 works for scripting. Every
// process must see the same -graph file (or the same -family/-n/-seed),
// from which it deterministically rebuilds the graph and partition map.
// Each worker process hosts one engine worker; the coordinator runs the
// engine's master loop, with the same -model and -technique defaults as a
// single-process run; graphrun rejects the flags the mode does not read.

import (
	"fmt"
	"net"
	"time"

	"serialgraph"
)

// runWorkerProcess joins the coordinator at addr and runs the job it
// sends to completion.
func runWorkerProcess(addr string) error {
	fmt.Printf("worker: joining coordinator at %s\n", addr)
	start := time.Now()
	if err := serialgraph.Work(addr); err != nil {
		return err
	}
	fmt.Printf("worker: done in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// runCoordinatorProcess drives one distributed run and prints the same
// summary a single-process run would. job names the program and graph;
// the run options come from opt, the Options a single-process run with
// the same flags would use.
func runCoordinatorProcess(listen string, opt serialgraph.Options, job serialgraph.Job, out, metricsOut string) error {
	if job.GraphPath == "" && job.Family == "" {
		return fmt.Errorf("coordinator mode needs -graph or -family/-n (workers rebuild the graph themselves)")
	}
	job.Undirected = undirected(job.Alg)
	job.Seed = opt.Seed
	g, err := serialgraph.JobGraph(job)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Printf("coordinator: listening on %s for %d workers\n", ln.Addr(), opt.Workers)
	fmt.Printf("graph: %d vertices, %d edges; alg %s, %d worker processes, %s, %s, %s partitioning\n",
		g.NumVertices(), g.NumEdges(), job.Alg, opt.Workers, opt.Model, opt.Technique, opt.Partitioner)

	var res serialgraph.Result
	var values []float64
	var intValues []int32
	switch job.Alg {
	case "sssp":
		values, res, err = serialgraph.Coordinate(ln, g, serialgraph.SSSP(serialgraph.VertexID(job.Source)), job, opt)
	case "pagerank":
		values, res, err = serialgraph.Coordinate(ln, g, serialgraph.PageRank(job.Eps), job, opt)
	case "pagerank-agg":
		values, res, err = serialgraph.Coordinate(ln, g, serialgraph.PageRankAggregated(job.Eps), job, opt)
	case "coloring":
		intValues, res, err = serialgraph.Coordinate(ln, g, serialgraph.Coloring(), job, opt)
	case "wcc":
		intValues, res, err = serialgraph.Coordinate(ln, g, serialgraph.WCC(), job, opt)
	default:
		return fmt.Errorf("algorithm %q is not available in multi-process mode (want sssp, pagerank, pagerank-agg, coloring, or wcc)", job.Alg)
	}
	if err != nil {
		return err
	}

	if job.Alg == "coloring" {
		if cerr := serialgraph.ValidateColoring(g, intValues); cerr != nil {
			fmt.Printf("coloring INVALID: %v\n", cerr)
		} else {
			fmt.Printf("coloring proper, %d colors\n", countDistinct(intValues))
		}
	}
	printSummary(res)
	if out != "" {
		if err := writeValues(out, values, intValues); err != nil {
			return err
		}
	}
	if metricsOut != "" {
		return writeMetrics(metricsOut, res)
	}
	return nil
}
