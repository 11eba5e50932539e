package main

import (
	"sync/atomic"
	"time"

	"sian/internal/model"
	"sian/internal/obs/txtrace"
	"sian/internal/storage"
)

// storageTimes collects the storage layer's per-call timings in a
// traced run, while on: set-up and the post-run checks go through the
// same driver and are not timed.
type storageTimes struct {
	on       atomic.Bool
	readAt   *sampler // ns inside Driver.ReadAt
	reads    atomic.Int64
	lockWait *sampler // ns inside LockObjs / LockBatch
	window   *sampler // ns from lock acquired to Unlock returned
	unlock   *sampler // ns inside Unlock (WAL: append + group fsync wait)
}

func newStorageTimes(seed int64) *storageTimes {
	return &storageTimes{
		readAt:   newSampler(seed + 1),
		lockWait: newSampler(seed + 2),
		window:   newSampler(seed + 3),
		unlock:   newSampler(seed + 4),
	}
}

// timedDriver wraps a storage.Driver and times the calls the engine
// makes into it, without touching program code. It is transparent:
// every optional interface the engine discovers by type assertion on
// a driver (Recovered) or on a commit window (CommitLogger,
// TraceAttacher, DurableWindow, and LogCommitBatch on BatchLocked) is
// forwarded to the wrapped value, so a WAL still logs full commit
// records rather than raw installs. Where the wrapped value lacks one,
// the forwarder does what the engine does when the assertion fails.
type timedDriver struct {
	storage.Driver
	t *storageTimes
}

func (d *timedDriver) ReadAt(x model.Obj, ts uint64) (storage.Version, bool) {
	if !d.t.on.Load() {
		return d.Driver.ReadAt(x, ts)
	}
	t0 := time.Now()
	v, ok := d.Driver.ReadAt(x, ts)
	d.t.readAt.addSince(t0)
	d.t.reads.Add(1)
	return v, ok
}

func (d *timedDriver) ReadAtBatch(objs []model.Obj, ts uint64) ([]storage.Version, []bool) {
	if d.t.on.Load() {
		d.t.reads.Add(int64(len(objs)))
	}
	return d.Driver.ReadAtBatch(objs, ts)
}

func (d *timedDriver) LockObjs(objs []model.Obj) storage.Locked {
	if !d.t.on.Load() {
		return d.Driver.LockObjs(objs)
	}
	t0 := time.Now()
	l := d.Driver.LockObjs(objs)
	t1 := time.Now()
	d.t.lockWait.add(int64(t1.Sub(t0)))
	return &timedWindow{Locked: l, t: d.t, acquired: t1}
}

func (d *timedDriver) LockBatch(objs []model.Obj) storage.BatchLocked {
	if !d.t.on.Load() {
		return d.Driver.LockBatch(objs)
	}
	t0 := time.Now()
	b := d.Driver.LockBatch(objs)
	t1 := time.Now()
	d.t.lockWait.add(int64(t1.Sub(t0)))
	return &timedWindow{Locked: b, batch: b, t: d.t, acquired: t1}
}

// RecoveredMaxTS forwards storage.Recovered; zero (the engine's
// default seed) when the wrapped driver restores nothing.
func (d *timedDriver) RecoveredMaxTS() uint64 {
	if r, ok := d.Driver.(storage.Recovered); ok {
		return r.RecoveredMaxTS()
	}
	return 0
}

// timedWindow wraps a commit window; batch is set when it came from
// LockBatch.
type timedWindow struct {
	storage.Locked
	batch    storage.BatchLocked
	t        *storageTimes
	acquired time.Time
}

func (w *timedWindow) Unlock() {
	t0 := time.Now()
	w.Locked.Unlock()
	t1 := time.Now()
	w.t.unlock.add(int64(t1.Sub(t0)))
	w.t.window.add(int64(t1.Sub(w.acquired)))
}

// LogCommitBatch forwards storage.BatchLocked's staging call.
func (w *timedWindow) LogCommitBatch(recs []storage.CommitRecord) {
	if w.batch != nil {
		w.batch.LogCommitBatch(recs)
	}
}

// LogCommit forwards storage.CommitLogger.
func (w *timedWindow) LogCommit(rec storage.CommitRecord) {
	if lg, ok := w.Locked.(storage.CommitLogger); ok {
		lg.LogCommit(rec)
	}
}

// AttachTrace forwards storage.TraceAttacher.
func (w *timedWindow) AttachTrace(tr *txtrace.Trace) {
	if ta, ok := w.Locked.(storage.TraceAttacher); ok {
		ta.AttachTrace(tr)
	}
}

// Durable forwards storage.DurableWindow; (0, nil) is what the engine
// assumes of a window without one.
func (w *timedWindow) Durable() (uint64, error) {
	if dw, ok := w.Locked.(storage.DurableWindow); ok {
		return dw.Durable()
	}
	return 0, nil
}
