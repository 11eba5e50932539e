package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sian/internal/model"
	"sian/internal/storage"
	"sian/internal/storage/drivertest"
)

// testOpts returns fast options for a throwaway directory: no fsync,
// small certification window.
func testOpts(dir string) Options {
	return Options{Dir: dir, NoSync: true, Window: 64}
}

func mustOpen(t *testing.T, opts Options) *Driver {
	t.Helper()
	d, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", opts.Dir, err)
	}
	return d
}

// TestDriverConformance runs the shared storage-driver suite against
// the WAL driver: same semantics as the in-memory driver, plus a log.
func TestDriverConformance(t *testing.T) {
	t.Parallel()
	drivertest.Run(t, func(t *testing.T) storage.Driver {
		return mustOpen(t, testOpts(t.TempDir()))
	})
}

// commitThrough simulates the engine's durable commit: lock the write
// set, install, stage the commit record, unlock (append + sync).
func commitThrough(t *testing.T, d *Driver, rec storage.CommitRecord) uint64 {
	t.Helper()
	tx := model.NewTransaction(rec.TxID, rec.Ops...)
	objs := tx.WriteSet()
	w := d.LockObjs(objs)
	for _, x := range objs {
		v, _ := tx.FinalWrite(x)
		if err := w.Install(x, storage.Version{Val: v, TS: rec.TS}); err != nil {
			t.Fatalf("install %s@%d: %v", x, rec.TS, err)
		}
	}
	w.(storage.CommitLogger).LogCommit(rec)
	w.Unlock()
	lsn, err := w.(storage.DurableWindow).Durable()
	if err != nil {
		t.Fatalf("durable: %v", err)
	}
	if lsn == 0 {
		t.Fatal("commit window reported LSN 0")
	}
	return lsn
}

// counterChain builds the canonical test workload: n read-modify-write
// commits on one object ("r x i-1, w x i" at timestamp i), an SI
// history by construction.
func counterChain(t *testing.T, d *Driver, from, to int) {
	t.Helper()
	for i := from; i <= to; i++ {
		commitThrough(t, d, storage.CommitRecord{
			TS:      uint64(i),
			Session: "s1",
			TxID:    fmt.Sprintf("t%d", i),
			Ops: []model.Op{
				model.Read("x", model.Value(i-1)),
				model.Write("x", model.Value(i)),
			},
		})
	}
}

// TestReopenReplaysLog pins the basic durability loop: commit, close,
// reopen, and the recovered state is certified and complete.
func TestReopenReplaysLog(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	d := mustOpen(t, testOpts(dir))
	const n = 25
	var lastLSN uint64
	for i := 1; i <= n; i++ {
		lsn := commitThrough(t, d, storage.CommitRecord{
			TS: uint64(i), Session: "s1", TxID: fmt.Sprintf("t%d", i),
			Ops: []model.Op{
				model.Read("x", model.Value(i-1)),
				model.Write("x", model.Value(i)),
				model.Write("y", model.Value(-i)),
			},
		})
		if lsn <= lastLSN {
			t.Fatalf("LSN not monotonic: %d after %d", lsn, lastLSN)
		}
		lastLSN = lsn
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re := mustOpen(t, testOpts(dir))
	defer re.Close()
	info := re.Recovery()
	if !info.Certified {
		t.Fatalf("recovery not certified: %s", info.Verdict)
	}
	if info.Commits != n {
		t.Errorf("replayed %d commits, want %d", info.Commits, n)
	}
	if info.MaxTS != n {
		t.Errorf("recovered MaxTS %d, want %d", info.MaxTS, n)
	}
	if re.RecoveredMaxTS() != n {
		t.Errorf("RecoveredMaxTS %d, want %d", re.RecoveredMaxTS(), n)
	}
	if v, ok := re.Latest("x"); !ok || v.Val != n || v.TS != n {
		t.Errorf("Latest(x) = %+v, %v; want val %d at ts %d", v, ok, n, n)
	}
	if v, ok := re.Latest("y"); !ok || v.Val != -n {
		t.Errorf("Latest(y) = %+v, %v; want val %d", v, ok, -n)
	}
	if got := re.VersionCount("x"); got != n {
		t.Errorf("VersionCount(x) = %d, want %d", got, n)
	}
	// And the reopened driver keeps accepting commits past the
	// recovered frontier.
	commitThrough(t, re, storage.CommitRecord{
		TS: n + 1, Session: "s1", TxID: "post",
		Ops: []model.Op{model.Write("x", model.Value(n+1))},
	})
	if v, _ := re.Latest("x"); v.TS != n+1 {
		t.Errorf("post-recovery commit not visible: %+v", v)
	}
}

// TestBatchGroupSurvivesReopen pins the group-commit durability path:
// a batch of disjoint commits staged via LogCommitBatch is appended as
// one contiguous record group covered by one sync, its records replay
// individually on recovery, and the recovered stream still certifies
// SI. Fsync accounting is the acceptance observable: one batch of n
// commits must cost at most one sync, i.e. strictly fewer syncs than
// commits.
func TestBatchGroupSurvivesReopen(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	// Real fsyncs, so the syncs-vs-commits accounting is meaningful.
	d := mustOpen(t, Options{Dir: dir, Window: 64})

	reg := d.cSyncs // wal_syncs_total handle resolved at Open
	syncsBefore := reg.Value()
	const members = 8
	union := make([]model.Obj, 0, members)
	recs := make([]storage.CommitRecord, 0, members)
	for i := 0; i < members; i++ {
		union = append(union, model.Obj(fmt.Sprintf("g%d", i)))
	}
	w := d.LockBatch(union)
	for i, x := range union {
		ts := uint64(i + 1)
		if err := w.Install(x, storage.Version{Val: model.Value(i), TS: ts}); err != nil {
			t.Fatalf("install: %v", err)
		}
		recs = append(recs, storage.CommitRecord{
			TS: ts, Session: fmt.Sprintf("s%d", i), TxID: fmt.Sprintf("t%d", i),
			Ops: []model.Op{model.Write(x, model.Value(i))},
		})
	}
	w.LogCommitBatch(recs)
	w.Unlock()
	lsn, err := w.(storage.DurableWindow).Durable()
	if err != nil {
		t.Fatalf("durable: %v", err)
	}
	if lsn != uint64(members) {
		t.Errorf("group LSN = %d, want %d (one frame per member, contiguous)", lsn, members)
	}
	if syncs := reg.Value() - syncsBefore; syncs >= members {
		t.Errorf("batch of %d commits cost %d syncs; group fsync must cost fewer syncs than commits", members, syncs)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re := mustOpen(t, testOpts(dir))
	defer re.Close()
	info := re.Recovery()
	if !info.Certified {
		t.Fatalf("recovery not certified: %s", info.Verdict)
	}
	if info.Commits != members {
		t.Errorf("replayed %d commits, want %d (one record per batch member)", info.Commits, members)
	}
	if info.MaxTS != members {
		t.Errorf("recovered MaxTS %d, want %d", info.MaxTS, members)
	}
	for i, x := range union {
		v, ok := re.Latest(x)
		if !ok || v.Val != model.Value(i) || v.TS != uint64(i+1) {
			t.Errorf("Latest(%s) = %+v, %v; want val %d at ts %d", x, v, ok, i, i+1)
		}
	}
}

// TestLargeRecordReplay pins replay of one commit record with many
// writes, some objects written twice: every recovered value must be
// that object's last write in the record.
func TestLargeRecordReplay(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	d := mustOpen(t, testOpts(dir))
	const distinct, twice = 30_000, 10_000
	objs := make([]model.Obj, distinct)
	ops := make([]model.Op, 0, distinct+twice)
	for i := range objs {
		objs[i] = model.Obj(fmt.Sprintf("o%d", i))
		ops = append(ops, model.Write(objs[i], model.Value(i)))
	}
	// Rewrite every third object, so rewritten objects interleave with
	// ones written once.
	last := make(map[model.Obj]model.Value, distinct)
	for i := 0; i < twice; i++ {
		x := objs[3*i]
		ops = append(ops, model.Write(x, model.Value(-i-1)))
		last[x] = model.Value(-i - 1)
	}
	for i, x := range objs {
		if _, ok := last[x]; !ok {
			last[x] = model.Value(i)
		}
	}
	w := d.LockBatch(objs)
	for _, x := range objs {
		if err := w.Install(x, storage.Version{Val: last[x], TS: 1}); err != nil {
			t.Fatalf("install: %v", err)
		}
	}
	w.LogCommitBatch([]storage.CommitRecord{{TS: 1, Session: "s1", TxID: "big", Ops: ops}})
	w.Unlock()
	if _, err := w.(storage.DurableWindow).Durable(); err != nil {
		t.Fatalf("durable: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Replay alone: certifying a 40,000-write transaction takes the
	// recovery monitor seconds of its own.
	opts := testOpts(dir)
	opts.SkipCertify = true
	re := mustOpen(t, opts)
	defer re.Close()
	if info := re.Recovery(); info.Commits != 1 || info.MaxTS != 1 {
		t.Fatalf("recovery = %+v, want one commit at ts 1", info)
	}
	for _, x := range objs {
		if v, ok := re.Latest(x); !ok || v.Val != last[x] || v.TS != 1 {
			t.Fatalf("Latest(%s) = %+v, %v; want val %d at ts 1", x, v, ok, last[x])
		}
	}
}

// TestRawInstallsSurviveReopen pins the non-engine append path: plain
// Install / InstallBatch calls are logged as install records with
// Writer and Meta preserved.
func TestRawInstallsSurviveReopen(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	d := mustOpen(t, testOpts(dir))
	want := storage.Version{Val: 7, TS: 3, Writer: "w1", Meta: 42}
	if err := d.Install("a", want); err != nil {
		t.Fatal(err)
	}
	if err := d.InstallBatch([]storage.Write{
		{Obj: "b", Version: storage.Version{Val: 1, TS: 1}},
		{Obj: "b", Version: storage.Version{Val: 2, TS: 2, Meta: 9}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, testOpts(dir))
	defer re.Close()
	if !re.Recovery().Certified {
		t.Fatalf("recovery not certified: %s", re.Recovery().Verdict)
	}
	if v, ok := re.Latest("a"); !ok || v != want {
		t.Errorf("Latest(a) = %+v, want %+v", v, want)
	}
	if v, ok := re.Latest("b"); !ok || v.Val != 2 || v.Meta != 9 {
		t.Errorf("Latest(b) = %+v", v)
	}
}

// TestRecoveryRefusesNonSI hand-crafts a lost-update log — two
// transactions that both read x=0 and both write x — and asserts Open
// refuses to serve it: the replayed history is not SI, and the
// CertifyError carries the witness.
func TestRecoveryRefusesNonSI(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	records := [][]byte{
		encodeFrame(recCommit, 1, encodeCommitBody(storage.CommitRecord{
			TS: 1, Session: "a", TxID: "T1",
			Ops: []model.Op{model.Read("x", 0), model.Write("x", 1)},
		})),
		encodeFrame(recCommit, 2, encodeCommitBody(storage.CommitRecord{
			TS: 2, Session: "b", TxID: "T2",
			Ops: []model.Op{model.Read("x", 0), model.Write("x", 2)},
		})),
	}
	writeSegment(t, filepath.Join(dir, "wal-00000001.log"), records)

	_, err := Open(Options{Dir: dir, NoSync: true, Window: 64})
	var cerr *CertifyError
	if !errors.As(err, &cerr) {
		t.Fatalf("Open = %v, want *CertifyError", err)
	}
	if len(cerr.Info.Violations) == 0 {
		t.Fatal("CertifyError carries no violations")
	}
	if cerr.Info.Violations[0].Cycle == "" {
		t.Error("violation carries no witness cycle")
	}

	// The same log opens with certification disabled (the data is
	// still there, just not SI-certifiable).
	d, err := Open(Options{Dir: dir, NoSync: true, SkipCertify: true})
	if err != nil {
		t.Fatalf("SkipCertify Open: %v", err)
	}
	defer d.Close()
	if v, ok := d.Latest("x"); !ok || v.Val != 2 {
		t.Errorf("Latest(x) = %+v, %v", v, ok)
	}
}

func writeSegment(t *testing.T, path string, frames [][]byte) {
	t.Helper()
	data := []byte(segMagic)
	for _, f := range frames {
		data = append(data, f...)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotTruncatesLog drives enough commits through a small
// SnapshotEvery to force rotations, then checks the snapshot exists,
// old segments are gone, and recovery is exact.
func TestSnapshotTruncatesLog(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	opts := testOpts(dir)
	opts.SnapshotEvery = 8
	d := mustOpen(t, opts)
	const n = 60
	counterChain(t, d, 1, n)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.SnapshotError != "" {
		t.Fatalf("snapshot error: %s", st.SnapshotError)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot")); err != nil {
		t.Fatalf("no snapshot file: %v", err)
	}
	entries, _ := os.ReadDir(dir)
	segs := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".log" {
			segs++
		}
	}
	if segs == 0 || segs > 3 {
		t.Errorf("expected a small number of surviving segments, found %d", segs)
	}

	re := mustOpen(t, testOpts(dir))
	defer re.Close()
	info := re.Recovery()
	if !info.Certified {
		t.Fatalf("recovery not certified: %s", info.Verdict)
	}
	if info.SnapshotObjects == 0 {
		t.Error("recovery loaded no snapshot")
	}
	if v, ok := re.Latest("x"); !ok || v.Val != n || v.TS != n {
		t.Errorf("Latest(x) = %+v, %v; want %d@%d", v, ok, n, n)
	}
	if re.RecoveredMaxTS() != n {
		t.Errorf("RecoveredMaxTS = %d, want %d", re.RecoveredMaxTS(), n)
	}
}

// TestCorruptSnapshotRefuses flips a byte inside the snapshot document
// and asserts Open refuses: the snapshot's segments may already be
// truncated, so serving without it could lose acknowledged commits.
func TestCorruptSnapshotRefuses(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	opts := testOpts(dir)
	opts.SnapshotEvery = 8
	d := mustOpen(t, opts)
	counterChain(t, d, 1, 40)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "snapshot")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(testOpts(dir)); err == nil {
		t.Fatal("Open served a CRC-failing snapshot")
	}
}

// TestStats pins the durability counters: with everything synced the
// appended and synced LSNs agree.
func TestStats(t *testing.T) {
	t.Parallel()
	d := mustOpen(t, testOpts(t.TempDir()))
	defer d.Close()
	counterChain(t, d, 1, 10)
	st := d.Stats()
	if st.AppendedLSN != 10 || st.SyncedLSN != 10 {
		t.Errorf("Stats = %+v, want appended=synced=10", st)
	}
	if st.LastSyncUnixNano == 0 {
		t.Error("LastSyncUnixNano never set")
	}
}

// TestEmptyDirCertifies pins the trivial case: a fresh directory opens
// certified with zero commits.
func TestEmptyDirCertifies(t *testing.T) {
	t.Parallel()
	d := mustOpen(t, testOpts(t.TempDir()))
	defer d.Close()
	info := d.Recovery()
	if !info.Certified || info.Commits != 0 {
		t.Errorf("fresh-dir recovery = %+v", info)
	}
}
