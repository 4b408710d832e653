package main

// Multi-process mode: `graphrun -listen` runs the coordinator,
// `graphrun -join` runs one worker process. A real run over TCP loopback:
//
//	graphrun -listen 127.0.0.1:7400 -workers 2 \
//	    -alg sssp -graph g.bin -o dist.txt &
//	graphrun -join 127.0.0.1:7400 &
//	graphrun -join 127.0.0.1:7400
//
// The coordinator prints its bound address on startup ("coordinator:
// listening on ..."), so -listen 127.0.0.1:0 works for scripting. Every
// process must see the same -graph file (or the same -family/-n/-seed),
// from which it deterministically rebuilds the graph and partition map.
// The driver runs BSP with no synchronization technique; graphrun rejects
// the flags it would otherwise ignore.

import (
	"fmt"
	"net"
	"os"
	"time"

	"serialgraph"
	"serialgraph/internal/algorithms"
	"serialgraph/internal/dist"
	"serialgraph/internal/engine"
	"serialgraph/internal/graph"
)

// runWorkerProcess joins the coordinator at addr and runs to completion.
func runWorkerProcess(addr string) error {
	fmt.Printf("worker: joining coordinator at %s\n", addr)
	start := time.Now()
	if err := dist.Work(addr); err != nil {
		return err
	}
	fmt.Printf("worker: done in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// runCoordinatorProcess drives one distributed run and prints the same
// summary a single-process run would. job names the program and graph;
// the run options come from opt, the Options a single-process run with
// the same flags would use, with the engine's defaults filled in.
func runCoordinatorProcess(listen string, opt serialgraph.Options, job dist.Job, out string) error {
	if job.GraphPath == "" && job.Family == "" {
		return fmt.Errorf("coordinator mode needs -graph or -family/-n (workers rebuild the graph themselves)")
	}
	cfg := engine.Config{
		Workers: opt.Workers, PartitionsPerWorker: opt.PartitionsPerWorker,
		MaxSupersteps: opt.MaxSupersteps,
	}.WithDefaults()
	job.Workers = int32(cfg.Workers)
	job.PartsPerWorker = int32(cfg.PartitionsPerWorker)
	job.MaxSupersteps = int32(cfg.MaxSupersteps)
	job.Seed = opt.Seed
	job.MsgMemoryBudget = opt.MsgMemoryBudget
	job.Partitioner = opt.Partitioner
	job.Undirected = undirected(job.Alg)

	g, err := dist.BuildGraph(job)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Printf("coordinator: listening on %s for %d workers\n", ln.Addr(), job.Workers)
	fmt.Printf("graph: %d vertices, %d edges; alg %s, %d workers x %d partitions, %s, %s, %s partitioning\n",
		g.NumVertices(), g.NumEdges(), job.Alg, job.Workers, job.PartsPerWorker,
		serialgraph.BSP, serialgraph.NoSerializability, opt.Partitioner)

	start := time.Now()
	var res dist.Result
	var values []float64
	var intValues []int32
	switch job.Alg {
	case "sssp":
		values, res, err = dist.Coordinate(ln, job, algorithms.SSSP(graph.VertexID(job.Source)), g.NumVertices())
	case "pagerank":
		values, res, err = dist.Coordinate(ln, job, algorithms.PageRank(job.Eps), g.NumVertices())
	case "pagerank-agg":
		values, res, err = dist.Coordinate(ln, job, algorithms.PageRankAggregated(job.Eps), g.NumVertices())
	case "coloring":
		intValues, res, err = dist.Coordinate(ln, job, algorithms.Coloring(), g.NumVertices())
	case "wcc":
		intValues, res, err = dist.Coordinate(ln, job, algorithms.WCC(), g.NumVertices())
	default:
		return fmt.Errorf("algorithm %q is not available in multi-process mode (want sssp, pagerank, pagerank-agg, coloring, or wcc)", job.Alg)
	}
	if err != nil {
		return err
	}

	if job.Alg == "coloring" {
		if cerr := algorithms.ValidateColoring(g, intValues); cerr != nil {
			fmt.Printf("coloring INVALID: %v\n", cerr)
		} else {
			fmt.Printf("coloring proper, %d colors\n", countDistinct(intValues))
		}
	}
	fmt.Printf("converged=%v supersteps=%d executions=%d time=%v\n",
		res.Converged, res.Supersteps, res.Executions, time.Since(start).Round(time.Millisecond))
	fmt.Printf("network: %d data batches / %d KB data over TCP; wire bytes=%d\n",
		res.DataBatches, res.DataBytes/1024, res.WireBytes)

	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		if intValues != nil {
			for _, v := range intValues {
				fmt.Fprintln(f, v)
			}
		} else {
			for _, v := range values {
				fmt.Fprintln(f, v)
			}
		}
		fmt.Printf("wrote values to %s\n", out)
	}
	return nil
}
