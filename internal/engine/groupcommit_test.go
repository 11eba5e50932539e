package engine_test

import (
	"testing"
	"time"

	"sian/internal/check"
	"sian/internal/depgraph"
	"sian/internal/engine"
	"sian/internal/model"
	"sian/internal/monitor"
	"sian/internal/obs"
	"sian/internal/obs/eventlog"
	"sian/internal/obs/txtrace"
	"sian/internal/storage"
	"sian/internal/workload"
)

// pausedDriver is a test-only storage driver whose group-commit window
// pauses in Unlock, still holding its stripes: the leader stays in its
// batch long enough for concurrent committers to queue behind it, so
// the next leader decides several members at once.
type pausedDriver struct{ storage.Driver }

func (d pausedDriver) LockBatch(objs []model.Obj) storage.BatchLocked {
	return pausedWindow{d.Driver.LockBatch(objs)}
}

type pausedWindow struct{ storage.BatchLocked }

func (w pausedWindow) Unlock() {
	time.Sleep(200 * time.Microsecond)
	w.BatchLocked.Unlock()
}

// TestGroupCommitDifferentialCertification is the differential safety
// gate for the group-commit pipeline: the closed-loop and hot-key
// workloads run once on the plain in-memory driver (batches mostly of
// one) and once on a driver whose window pauses so that followers
// queue (multi-member batches), and both histories must draw the same
// verdict from the offline checker (check.Certify) and the online
// monitor — all four certifying as SI. Run under -race in CI, this
// pins the batched validate/install/publish path to the same SI
// definition whatever the batch size.
func TestGroupCommitDifferentialCertification(t *testing.T) {
	t.Parallel()
	configs := []struct {
		name string
		cfg  workload.ClosedLoopConfig
	}{
		{"disjoint", workload.ClosedLoopConfig{Sessions: 4, Ops: 20, Objects: 4, Disjoint: true, Seed: 11}},
		{"hotkeys", workload.ClosedLoopConfig{Sessions: 6, Ops: 15, Objects: 32, HotKeys: 2, Seed: 12}},
	}
	for _, tc := range configs {
		tc := tc
		for _, forced := range []bool{false, true} {
			forced := forced
			name := tc.name + "/batching-on"
			if forced {
				name = tc.name + "/batching-forced"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				rec := eventlog.NewRecorder(1 << 17)
				drv := storage.NewMem()
				if forced {
					drv = pausedDriver{drv}
				}
				db, err := engine.New(engine.SI, engine.Config{Recorder: rec, Driver: drv})
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				out, err := workload.RunClosedLoop(db, tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if out.Commits != int64(tc.cfg.Sessions*tc.cfg.Ops) {
					t.Fatalf("commits = %d, want %d (closed loop retries to completion)",
						out.Commits, tc.cfg.Sessions*tc.cfg.Ops)
				}
				db.Flush()

				lbl := obs.L("engine", engine.SI.String())
				batches := db.Metrics().Counter("engine_commit_batches_total", lbl).Value()
				members := db.Metrics().Counter("engine_commit_batch_members_total", lbl).Value()
				t.Logf("%d batch members in %d batches", members, batches)
				if batches == 0 {
					t.Error("no batches executed")
				}
				if forced && members <= batches {
					t.Errorf("members = %d, batches = %d: the paused window formed no multi-member batch", members, batches)
				}

				// Offline: the complete recorded history must be SI.
				res, err := check.Certify(db.History(), depgraph.SI, check.Options{
					NoInit: true, PinInit: true, Budget: 5_000_000,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Member {
					t.Fatalf("history not allowed by SI: %v", res.Explain)
				}

				// Online: the monitor over the same event stream must agree,
				// definitively.
				if dropped := rec.Dropped(); dropped > 0 {
					t.Fatalf("recorder dropped %d events; raise the ring capacity", dropped)
				}
				mon := monitor.New(monitor.Config{Model: depgraph.SI})
				for _, ev := range rec.Events() {
					mon.Ingest(ev)
				}
				rep, err := mon.Finish()
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Member {
					for _, v := range rep.Violations {
						t.Logf("violation: %v", v)
					}
					t.Fatalf("monitor rejects the stream the checker certified (%d events, %d commits)",
						rep.Events, rep.Commits)
				}
				if !rep.Definitive {
					t.Error("unwindowed monitor verdict should be definitive")
				}
				if int64(rep.Commits) != out.Commits+1 {
					t.Errorf("monitor saw %d commits, engine counted %d (+1 init = %d)",
						rep.Commits, out.Commits, out.Commits+1)
				}
			})
		}
	}
}

// TestReadOnlyCommitTraceStage pins the ack-terminal stage of
// read-only commits: a traced read-only transaction's span sequence
// ends reads → ro_commit → ack on every engine with a read-only fast
// path, so its commit latency stays attributable in /trace/{id} span
// trees instead of jumping from reads straight to ack.
func TestReadOnlyCommitTraceStage(t *testing.T) {
	for _, kind := range []engine.Kind{engine.SI, engine.PSI, engine.SSI} {
		t.Run(kind.String(), func(t *testing.T) {
			tracer := txtrace.New(txtrace.Options{})
			db, err := engine.New(kind, engine.Config{TxTracer: tracer})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if err := db.Initialize(map[model.Obj]model.Value{"x": 1}); err != nil {
				t.Fatal(err)
			}
			if err := db.Session("r").Transact(func(tx *engine.Tx) error {
				_, err := tx.Read("x")
				return err
			}); err != nil {
				t.Fatal(err)
			}
			finished := tracer.Finished(1)
			if len(finished) != 1 {
				t.Fatal("no trace for the read-only transaction")
			}
			td := finished[0]
			if td.Outcome != txtrace.OutcomeCommit {
				t.Fatalf("outcome = %s", td.Outcome)
			}
			// SI and PSI read-only commits touch no lock; SSI must take
			// the engine mutex even when read-only (its SIREADs stay
			// relevant to later writers), so it honestly reports a
			// lock_wait span first.
			want := []txtrace.Stage{txtrace.StageBeginWait, txtrace.StageReads}
			if kind == engine.SSI {
				want = append(want, txtrace.StageLockWait)
			}
			want = append(want, txtrace.StageROCommit, txtrace.StageAck)
			if len(td.Spans) != len(want) {
				t.Fatalf("spans: %v", td.Spans)
			}
			for i, st := range want {
				if td.Spans[i].Stage != st {
					t.Errorf("span %d = %s, want %s", i, td.Spans[i].Stage, st)
				}
			}
		})
	}
}
