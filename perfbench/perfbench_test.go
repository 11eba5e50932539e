package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"sian/internal/engine"
	"sian/internal/model"
	"sian/internal/storage"
	"sian/internal/storage/wal"
)

// The timing wrapper must forward every optional interface the engine
// discovers by type assertion.
func TestWrapperForwardsOptionalInterfaces(t *testing.T) {
	st := newStorageTimes(1)
	st.on.Store(true)
	var d storage.Driver = &timedDriver{Driver: storage.NewMem(), t: st}
	if _, ok := d.(storage.Recovered); !ok {
		t.Error("timedDriver does not implement storage.Recovered")
	}
	for name, w := range map[string]storage.Locked{
		"LockObjs":  d.LockObjs([]model.Obj{"x"}),
		"LockBatch": d.LockBatch([]model.Obj{"y"}),
	} {
		if _, ok := w.(storage.CommitLogger); !ok {
			t.Errorf("%s window does not implement storage.CommitLogger", name)
		}
		if _, ok := w.(storage.DurableWindow); !ok {
			t.Errorf("%s window does not implement storage.DurableWindow", name)
		}
		if _, ok := w.(storage.TraceAttacher); !ok {
			t.Errorf("%s window does not implement storage.TraceAttacher", name)
		}
		w.Unlock()
	}
}

// A wire-logged round through the timing wrapper must leave the WAL
// logging commit records: its log recovers as certified, with as many
// commits as were acknowledged plus the key-pool initialisation.
func TestWrappedWireRoundRecoversCertified(t *testing.T) {
	cfg := config{seed: 7, work: t.TempDir(), trace: true}
	keys := keyNames("k", 500)
	tm := &wireTimes{newSampler(1), newSampler(2), newSampler(3), newSampler(4)}
	st := newStorageTimes(5)
	rr, err := wireRound(cfg, keys, 0, traced, wireRun{burst: 200, rec: &recoverTotals{}}, tm, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.errs) > 0 {
		t.Fatalf("round failed its checks: %v", rr.errs)
	}
	if rr.commits == 0 || st.unlock.count() == 0 || tm.commit.count() == 0 {
		t.Fatalf("nothing measured: %d commits, %d unlocks, %d wire commits", rr.commits, st.unlock.count(), tm.commit.count())
	}
	d, err := wal.Open(wal.Options{Dir: filepath.Join(cfg.work, "wire-0")})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	info := d.Recovery()
	if !info.Certified || info.Commits != rr.commits+1 {
		t.Fatalf("recovered %d commits (certified %v), want %d acknowledged + 1", info.Commits, info.Certified, rr.commits)
	}
}

// chain builds n successive read-modify-writes of key k from its
// initial value, minting values from g.
func chain(k int32, n int, g *valueGen) ([]rmw, model.Value) {
	var rs []rmw
	v := initValue(int(k))
	for i := 0; i < n; i++ {
		nv := g.mint()
		rs = append(rs, rmw{key: k, pred: v, val: nv})
		v = nv
	}
	return rs, v
}

func TestCheckChains(t *testing.T) {
	g0, g1 := newValueGen(0), newValueGen(1)
	a, endA := chain(0, 5, &g0)
	b, endB := chain(1, 3, &g1)
	final := []model.Value{endA, endB, initValue(2)}
	if err := checkChains(3, [][]rmw{a, b}, final); err != nil {
		t.Fatalf("valid history rejected: %v", err)
	}
	// Lost update: a second transaction overwrote the version a[2]
	// already overwrote.
	lost := append(append([]rmw(nil), b...), rmw{key: 0, pred: a[2].pred, val: g1.mint()})
	if err := checkChains(3, [][]rmw{a, lost}, final); err == nil || !strings.Contains(err.Error(), "lost update") {
		t.Fatalf("lost update not detected: %v", err)
	}
	// The final snapshot disagrees with the chain's end.
	if err := checkChains(3, [][]rmw{a, b}, []model.Value{endA, b[1].val, initValue(2)}); err == nil {
		t.Fatal("chain end mismatch not detected")
	}
	// A write whose predecessor no chain reaches.
	stray := append(append([]rmw(nil), b...), rmw{key: 2, pred: 999, val: g1.mint()})
	if err := checkChains(3, [][]rmw{a, stray}, final); err == nil {
		t.Fatal("unreachable write not detected")
	}
}

func TestContendedLogDeterministic(t *testing.T) {
	dir := t.TempDir()
	logs := map[string]genStats{}
	images := map[string]map[string][]byte{}
	for _, run := range []struct {
		name string
		seed int64
	}{{"a", 1}, {"b", 1}, {"c", 2}} {
		d := filepath.Join(dir, run.name)
		gs, err := writeContendedLog(d, run.seed)
		if err != nil {
			t.Fatal(err)
		}
		img, err := readDir(d)
		if err != nil {
			t.Fatal(err)
		}
		logs[run.name], images[run.name] = gs, img
	}
	if !sameFiles(images["a"], images["b"]) {
		t.Error("the same seed wrote different logs")
	}
	if sameFiles(images["a"], images["c"]) {
		t.Error("different seeds wrote the same log")
	}
	gs := logs["a"]
	if gs.logged != recCommits+1 {
		t.Errorf("logged %d commits, want %d", gs.logged, recCommits+1)
	}
	if gs.conflicts == 0 {
		t.Error("the log has no first-committer-wins aborts")
	}
	if gs.stale == 0 {
		t.Error("no read returned a non-latest version")
	}
}

// A log that lost its tail recovers certified but short; the check
// must fail it.
func TestTruncatedLogFailsCheck(t *testing.T) {
	dir := t.TempDir()
	gs, err := writeContendedLog(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	d, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := checkRecovered(d.Recovery(), gs.logged); err == nil {
		t.Fatal("a truncated log passed the recovery check")
	}
}

// One traced run prints every per-layer metric in its last line.
func TestTracedRunReportsEveryMetric(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "wire-logged", "--seconds", "4", "--trace", "1", "--workdir", t.TempDir()}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
		t.Fatalf("result %+v", res)
	}
	for _, d := range perLayer {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("metric %s missing or with unit %q", d.name, m.Unit)
		}
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(perLayer))
	}
	if !strings.Contains(out.String(), "reconcile:") {
		t.Error("no reconciliation line")
	}
}

// BENCHMARK.json declares the metrics and workloads this program
// reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %s is not implemented", w.Name)
		}
	}
	for _, c := range []struct {
		declared []struct{ Name, Unit string }
		defs     []metricDef
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(c.declared) != len(c.defs) {
			t.Errorf("%d metrics declared, %d reported", len(c.declared), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.declared[i].Name != d.name || c.declared[i].Unit != d.unit {
				t.Errorf("metric %d: declared %s %s, reported %s %s", i, c.declared[i].Name, c.declared[i].Unit, d.name, d.unit)
			}
		}
	}
}

// TestKnownDefectLongSnapshotRefused pins a defect of WAL recovery
// found by this benchmark: a transaction whose snapshot predates more
// than 62 later commits (the recovery monitor's default window) of an
// object it reads makes recovery refuse a log the engine produced
// under SI. Here session a reads x at a snapshot older than 63 commits
// of x by session b, and writes y. When recovery certifies this log,
// the defect is fixed: invert the assertion.
func TestKnownDefectLongSnapshotRefused(t *testing.T) {
	for _, later := range []int{62, 63} {
		dir := filepath.Join(t.TempDir(), "log")
		wd, err := wal.Open(wal.Options{Dir: dir, NoSync: true, SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		db, err := engine.New(engine.SI, engine.Config{Driver: wd})
		if err != nil {
			t.Fatal(err)
		}
		keys := keyNames("d", 2)
		if err := db.Initialize(initialValues(keys)); err != nil {
			t.Fatal(err)
		}
		tx, err := db.Session("a").Begin("long")
		if err != nil {
			t.Fatal(err)
		}
		b, g := db.Session("b"), newValueGen(1)
		for i := 0; i < later; i++ {
			if err := b.Transact(func(tx *engine.Tx) error { return tx.Write(keys[0], g.mint()) }); err != nil {
				t.Fatal(err)
			}
		}
		v, err := tx.Read(keys[0])
		if err == nil {
			err = tx.Write(keys[1], v)
		}
		if err == nil {
			err = tx.Commit()
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		d, err := wal.Open(wal.Options{Dir: dir})
		if d != nil {
			d.Close()
		}
		var cerr *wal.CertifyError
		refused := errors.As(err, &cerr)
		if err != nil && !refused {
			t.Fatal(err)
		}
		if want := later > 62; refused != want {
			t.Errorf("%d later commits: refused = %v, want %v (%v)", later, refused, want, err)
		}
	}
}
