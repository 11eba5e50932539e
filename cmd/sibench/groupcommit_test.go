package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestRunGroupCommitReport pins the batch accounting in the bench
// artifact: an SI closed-loop run records the group-commit block
// (batches executed, batch members, batch-size quantiles).
func TestRunGroupCommitReport(t *testing.T) {
	t.Parallel()
	readReport := func(t *testing.T) benchReport {
		t.Helper()
		path := filepath.Join(t.TempDir(), "bench.json")
		code, err := run([]string{
			"-engine", "si", "-workload", "closedloop",
			"-sessions", "4", "-txs", "25", "-objects", "8",
			"-bench-json", path,
		}, new(bytes.Buffer), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if code != 0 {
			t.Fatalf("exit = %d", code)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep benchReport
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}

	t.Run("on", func(t *testing.T) {
		t.Parallel()
		rep := readReport(t)
		gc := rep.GroupCommit
		if gc == nil {
			t.Fatal("no group_commit block")
		}
		if gc.Batches <= 0 || gc.BatchedCommits < gc.Batches {
			t.Errorf("batch accounting = %+v", gc)
		}
		// Every writing commit attempt is a batch member (read-only
		// commits are not), so members are bounded by the run's commit
		// attempts.
		if gc.BatchedCommits > rep.Commits+rep.Conflicts {
			t.Errorf("batched %d > commits %d + conflicts %d",
				gc.BatchedCommits, rep.Commits, rep.Conflicts)
		}
		if gc.P50BatchSize < 1 {
			t.Errorf("p50 batch size = %v, want >= 1", gc.P50BatchSize)
		}
	})
}

// TestRunSweepGroupCommitPoints pins the per-point accounting: every
// sweep point of an SI closed-loop sweep carries its repetition's
// group-commit block, and the headline block mirrors the best point.
func TestRunSweepGroupCommitPoints(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "bench.json")
	code, err := run([]string{
		"-engine", "si", "-workload", "closedloop",
		"-sweep", "1,2", "-sessions", "4", "-txs", "15", "-objects", "8",
		"-bench-json", path,
	}, new(bytes.Buffer), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Sweep) != 2 {
		t.Fatalf("sweep points: %d", len(rep.Sweep))
	}
	for _, pt := range rep.Sweep {
		if pt.GroupCommit == nil || pt.GroupCommit.Batches <= 0 {
			t.Errorf("procs=%d missing batch accounting: %+v", pt.Procs, pt.GroupCommit)
		}
	}
	if rep.GroupCommit == nil {
		t.Error("headline group_commit block missing")
	}
}
