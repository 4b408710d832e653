package bench

import (
	"strings"
	"testing"

	"serialgraph/internal/partition"
)

// partitionRowsByKind indexes the bsp-none pagerank row per partitioner.
func partitionRowsByKind(t *testing.T, rows []Row) map[string]Row {
	t.Helper()
	pr := map[string]Row{}
	for _, r := range rows {
		if r.Partition == nil {
			t.Fatalf("row %s/%s has no partition quality report", r.Algorithm, r.Technique)
		}
		if cell, kind, ok := strings.Cut(r.Technique, "/"); ok && cell == "bsp-none" {
			pr[kind] = r
		}
	}
	return pr
}

// checkPartitionRows verifies, from the returned rows, the reductions
// that PartitionQuality already gates with panics: the streaming
// partitioner cuts the boundary fraction and the cross-partition bytes
// by at least 25% against hash at equal P.
func checkPartitionRows(t *testing.T, rows []Row, wantRows int) {
	t.Helper()
	if len(rows) != wantRows {
		t.Fatalf("PartitionQuality returned %d rows, want %d", len(rows), wantRows)
	}
	pr := partitionRowsByKind(t, rows)
	hash, ok := pr[partition.KindHash]
	if !ok {
		t.Fatal("no bsp-none/hash row")
	}
	for _, kind := range []string{partition.KindLDG} {
		row, ok := pr[kind]
		if !ok {
			t.Fatalf("no bsp-none/%s row", kind)
		}
		if bf, hbf := row.Partition.BoundaryFraction, hash.Partition.BoundaryFraction; bf > 0.75*hbf {
			t.Errorf("%s boundary fraction %.4f vs hash %.4f: reduction under 25%%", kind, bf, hbf)
		}
		if db, hdb := row.DataBytes, hash.DataBytes; float64(db) > 0.75*float64(hdb) {
			t.Errorf("%s cross-partition bytes %d vs hash %d: reduction under 25%%", kind, db, hdb)
		}
		if row.Supersteps != hash.Supersteps {
			t.Errorf("%s BSP supersteps %d != hash %d", kind, row.Supersteps, hash.Supersteps)
		}
		t.Logf("%-6s boundary %.4f (hash %.4f), bytes %d (hash %d), skew %.2f",
			kind, row.Partition.BoundaryFraction, hash.Partition.BoundaryFraction,
			row.DataBytes, hash.DataBytes, row.Partition.BalanceSkew)
	}
}

// TestPartitionQualitySmoke runs the locality experiment on a small
// cluster so every gate inside PartitionQuality (balance bound, >=25%
// reductions, bitwise BSP equality, coloring validity) executes in the
// short suite too.
func TestPartitionQualitySmoke(t *testing.T) {
	rows := PartitionQuality(Config{Scale: 1, Workers: []int{4}})
	checkPartitionRows(t, rows, 8) // 2 partitioners x (pagerank + 3 coloring techniques)
}

// TestPartitionQualityAcceptance is the issue's acceptance gate at the
// BENCH-recipe size: P = 256 partitions on 16 workers, communities sized
// under the streaming capacity. PartitionQuality panics on any
// violation; this test re-derives the headline reductions from the rows
// it returns.
func TestPartitionQualityAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size locality run; covered by the long mode and make partition")
	}
	pinGOMAXPROCS(t)
	rows := PartitionQuality(Config{Scale: 1, Workers: []int{16}})
	checkPartitionRows(t, rows, 8)
}
