package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"serialgraph"
)

// The values each enum flag accepts, spelled by their String() names.
var (
	techniques = []serialgraph.Technique{serialgraph.NoSerializability, serialgraph.SingleToken,
		serialgraph.DualToken, serialgraph.PartitionLocking, serialgraph.VertexLocking}
	models     = []serialgraph.Model{serialgraph.BSP, serialgraph.Async, serialgraph.BAP}
	recoveries = []serialgraph.RecoveryMode{serialgraph.RecoverFull, serialgraph.RecoverConfined}
	transports = []serialgraph.Transport{serialgraph.InProc, serialgraph.TCPLoopback}
)

// coordinatorFlags are the flags -listen mode reads. Multi-process runs
// have no recovery, checkpoints, fault injection or history, so every
// other flag would be silently ignored there.
var coordinatorFlags = []string{"listen", "alg", "graph", "family", "n", "workers", "ppw",
	"model", "technique", "seed", "partitioner", "max-supersteps", "msg-mem", "source", "eps",
	"o", "metrics-out"}

// enumFlag is a flag whose value is one of vals, named by its String().
type enumFlag[T fmt.Stringer] struct {
	val  T
	vals []T
}

// enumVar defines an enum flag whose help text lists the accepted names.
func enumVar[T fmt.Stringer](name string, def T, usage string, vals []T) *T {
	f := &enumFlag[T]{val: def, vals: vals}
	flag.Var(f, name, usage+": "+f.names())
	return &f.val
}

func (f *enumFlag[T]) String() string { return f.val.String() }

func (f *enumFlag[T]) Set(s string) error {
	for _, v := range f.vals {
		if v.String() == s {
			f.val = v
			return nil
		}
	}
	return fmt.Errorf("want one of %s", f.names())
}

func (f *enumFlag[T]) names() string {
	names := make([]string, len(f.vals))
	for i, v := range f.vals {
		names[i] = v.String()
	}
	return strings.Join(names, " | ")
}

// rejectUnread exits naming the first flag the user set that the run mode
// does not read, instead of running without it.
func rejectUnread(mode string, reads func(name string) bool) {
	flag.Visit(func(f *flag.Flag) {
		if !reads(f.Name) {
			log.Fatalf("-%s is not read in %s", f.Name, mode)
		}
	})
}
