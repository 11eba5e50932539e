// Package storage defines the driver interface between the
// transactional engines (internal/engine) and the multi-version
// stores that back them. The engines program against Driver only; the
// concrete stores live in sub-packages:
//
//   - storage/mem — the 64-shard in-memory store (the former
//     internal/kvstore), reached via NewMem;
//   - storage/wal — a write-ahead-logged durable driver wrapping mem,
//     whose recovery replays the log through internal/monitor and
//     certifies the recovered state is SI before serving.
//
// The interface is exactly the engine-facing surface the SI protocol
// needs: snapshot reads (ReadAt), latest-timestamp validation
// (LatestTS), version installation (Install/InstallBatch), the
// multi-shard first-committer-wins commit window, and watermark
// compaction (Compact). The engine commits through LockBatch, whose
// window stages the batch's commit records (LogCommitBatch — ops
// included, so recovery certification is non-vacuous); LockObjs
// serves raw installs and tests. Version and Write are aliases of the
// mem types so a driver wrapping mem shares them without conversion.
//
// Durability is layered on through optional interfaces discovered by
// type assertion, so the in-memory driver pays nothing for them:
// CommitLogger lets a LockObjs window take the durable form of one
// transaction, DurableWindow exposes the fsynced log sequence number
// after the window closes, and Recovered seeds the engine's timestamp
// allocator after a restart.
package storage

import (
	"sian/internal/model"
	"sian/internal/obs/txtrace"
	"sian/internal/storage/mem"
)

// Version is one committed version of an object (alias of the mem
// driver's version type, shared by every driver).
type Version = mem.Version

// Write pairs an object with the version to install, for the batch
// operations.
type Write = mem.Write

// Locked is exclusive ownership of every lock stripe covering a write
// set, acquired by Driver.LockObjs: the atomic validate-then-install
// window of a first-committer-wins commit. Implementations panic when
// an accessor names an object outside the locked set.
type Locked interface {
	// LatestTS returns the newest timestamp of x.
	LatestTS(x model.Obj) uint64
	// ReadAt returns the latest version of x with TS ≤ ts, if any.
	ReadAt(x model.Obj, ts uint64) (Version, bool)
	// Install appends a version to x's chain under the held lock.
	Install(x model.Obj, v Version) error
	// Unlock releases the window. For durable drivers this is also the
	// durability point: Unlock appends the window's log record inside
	// the critical section (so per-object log order matches timestamp
	// order) and returns only after the record is fsynced (group fsync
	// permitted). The Locked must not be used afterwards.
	Unlock()
}

// BatchLocked is the group-commit window acquired by Driver.LockBatch:
// exclusive ownership of every lock stripe covering the union write
// set of a batch of pairwise-disjoint commits. It extends Locked with
// LogCommitBatch, which stages the whole batch's commit records —
// ascending timestamp order — so a durable driver appends them as one
// contiguous record group inside Unlock and covers the group with a
// single fsync. Drivers without a log ignore the staging.
type BatchLocked interface {
	Locked
	// LogCommitBatch stages the batch's commit records, in ascending
	// timestamp order, for the durability point at Unlock. Call at
	// most once, after installing every member's writes.
	LogCommitBatch(recs []CommitRecord)
}

// Driver is the engine-facing storage surface. All methods are safe
// for concurrent use.
type Driver interface {
	// Install appends a version to the object's chain. The version's
	// timestamp must strictly exceed the current latest.
	Install(x model.Obj, v Version) error
	// InstallBatch installs every write, taking each covered lock
	// stripe exactly once.
	InstallBatch(ws []Write) error
	// ReadAt returns the latest version of x with TS ≤ ts, if any.
	ReadAt(x model.Obj, ts uint64) (Version, bool)
	// ReadAtBatch performs ReadAt for every object at one timestamp,
	// taking each covered stripe read-lock exactly once.
	ReadAtBatch(objs []model.Obj, ts uint64) ([]Version, []bool)
	// Latest returns the most recent version of x, if any.
	Latest(x model.Obj) (Version, bool)
	// LatestTS returns the newest timestamp of x, or zero.
	LatestTS(x model.Obj) uint64
	// LatestTSBatch returns LatestTS for every object, taking each
	// covered stripe read-lock exactly once.
	LatestTSBatch(objs []model.Obj) []uint64
	// LockObjs write-locks every stripe covering objs in canonical
	// order and returns the commit window.
	LockObjs(objs []model.Obj) Locked
	// LockBatch write-locks every stripe covering the union write set
	// of a batch of pairwise-disjoint commits — one multi-shard
	// critical section in the same canonical stripe order as LockObjs —
	// and returns the group-commit window. For a durable driver the
	// records staged via LogCommitBatch are appended contiguously
	// inside Unlock and fsynced as one group.
	LockBatch(objs []model.Obj) BatchLocked
	// Compact drops versions unreachable from snapshots at or above
	// the watermark and returns the number discarded.
	Compact(watermark uint64) int
	// Objects returns the sorted list of objects with ≥ 1 version.
	Objects() []model.Obj
	// VersionCount returns the number of stored versions of x.
	VersionCount(x model.Obj) int
	// Close releases driver resources (files, goroutines). For durable
	// drivers it flushes and syncs the log; the in-memory driver's is a
	// no-op. The driver must not be used afterwards.
	Close() error
}

// Cloner is implemented by drivers that support deep copies (replica
// state transfer in the PSI engine).
type Cloner interface {
	Clone() Driver
}

// CommitRecord is the durable form of one engine commit, handed to a
// commit window via BatchLocked.LogCommitBatch (or CommitLogger)
// before Unlock. Ops carries the full
// operation list — reads included — so that replaying the log through
// the online monitor re-certifies the history rather than a write-only
// skeleton (write-only histories satisfy SI trivially).
type CommitRecord struct {
	// TS is the commit timestamp the window installed under.
	TS uint64
	// Session and TxID attribute the commit for recovery replay
	// (session order is what the monitor's SO edges need).
	Session string
	TxID    string
	// Ops is the transaction's operation list in program order.
	Ops []model.Op
}

// CommitLogger is implemented by the commit windows of durable
// drivers. A caller committing one transaction through a LockObjs
// window calls LogCommit after installing the write set and before
// Unlock; the window stages the record and appends it
// inside Unlock's critical section. Windows that never receive a
// LogCommit log their raw installs instead (engine-external writes).
type CommitLogger interface {
	LogCommit(rec CommitRecord)
}

// DurableWindow is implemented by the commit windows of durable
// drivers. After Unlock has returned, Durable reports the log sequence
// number the window's record was fsynced at, and the sync error if
// durability failed (the installs are then visible in memory but not
// on disk; the engine surfaces the error after publishing so the
// in-order timestamp pipeline cannot stall).
type DurableWindow interface {
	Durable() (lsn uint64, err error)
}

// TraceAttacher is implemented by the commit windows of drivers that
// can attribute their internal stages (WAL append, group-fsync wait)
// to a per-transaction trace. The engine attaches the transaction's
// trace before Unlock — only when tracing is on — and the window marks
// its stages on it inside Unlock. The in-memory driver does not
// implement it, so the untraced and in-memory paths pay nothing.
type TraceAttacher interface {
	AttachTrace(tr *txtrace.Trace)
}

// Recovered is implemented by drivers that restore state from a log.
// RecoveredMaxTS returns the highest commit timestamp present after
// recovery, so the engine seeds its allocator above it.
type Recovered interface {
	RecoveredMaxTS() uint64
}

// memDriver adapts *mem.Store to Driver. The only non-forwarding
// method is LockObjs (Go interfaces need the Locked return type to
// match exactly) and Compact (mem names it GC).
type memDriver struct {
	s *mem.Store
}

// NewMem returns a fresh in-memory driver: the 64-shard lock-striped
// MVCC store of storage/mem behind the Driver interface.
func NewMem() Driver { return &memDriver{s: mem.New()} }

func (d *memDriver) Install(x model.Obj, v Version) error { return d.s.Install(x, v) }
func (d *memDriver) InstallBatch(ws []Write) error        { return d.s.InstallBatch(ws) }
func (d *memDriver) ReadAt(x model.Obj, ts uint64) (Version, bool) {
	return d.s.ReadAt(x, ts)
}
func (d *memDriver) ReadAtBatch(objs []model.Obj, ts uint64) ([]Version, []bool) {
	return d.s.ReadAtBatch(objs, ts)
}
func (d *memDriver) Latest(x model.Obj) (Version, bool)      { return d.s.Latest(x) }
func (d *memDriver) LatestTS(x model.Obj) uint64             { return d.s.LatestTS(x) }
func (d *memDriver) LatestTSBatch(objs []model.Obj) []uint64 { return d.s.LatestTSBatch(objs) }
func (d *memDriver) LockObjs(objs []model.Obj) Locked        { return d.s.LockObjs(objs) }
func (d *memDriver) LockBatch(objs []model.Obj) BatchLocked {
	return memBatchWindow{d.s.LockObjs(objs)}
}
func (d *memDriver) Compact(watermark uint64) int { return d.s.GC(watermark) }
func (d *memDriver) Objects() []model.Obj         { return d.s.Objects() }
func (d *memDriver) VersionCount(x model.Obj) int { return d.s.VersionCount(x) }
func (d *memDriver) Close() error                 { return nil }
func (d *memDriver) Clone() Driver                { return &memDriver{s: d.s.Clone()} }

// memBatchWindow adapts mem's multi-shard window to the group-commit
// interface; with no log to stage into, LogCommitBatch is a no-op.
type memBatchWindow struct{ *mem.Locked }

func (memBatchWindow) LogCommitBatch([]CommitRecord) {}

// Mem returns the underlying concrete store of a NewMem driver, for
// callers layering on top of it (tests, durability drivers). It
// returns nil for drivers not created by NewMem.
func Mem(d Driver) *mem.Store {
	if md, ok := d.(*memDriver); ok {
		return md.s
	}
	return nil
}
