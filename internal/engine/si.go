package engine

import (
	"runtime"
	"sync/atomic"

	"sian/internal/model"
	"sian/internal/obs"
	"sian/internal/obs/txtrace"
	"sian/internal/storage"
)

// siProtocol is the idealised SI concurrency control of §1 of the
// paper: a transaction reads from the snapshot of committed state
// taken at its start, and commits only if no other committed
// transaction has written any object it also wrote since that
// snapshot (first-committer-wins).
//
// The implementation is built for multicore parallelism — the only
// global mutex is the sequencer's, held briefly to queue a writing
// commit and never across storage work:
//
//   - begin is lock-free: one atomic load of the published commit
//     timestamp plus a slot registration in snapRegistry (see
//     snapreg.go for the begin/GC handshake);
//   - reads take only the read-lock of the one store shard holding
//     the object;
//   - a writing commit goes through the group-commit sequencer
//     (batcher.go): a lone commit is a batch of one, concurrent
//     commits with disjoint write sets share one batch. The batch
//     locks only the shards covering its write sets, in canonical
//     shard order (Driver.LockBatch), and validates first-committer-
//     wins per member and installs under that one multi-shard
//     critical section;
//   - read-only transactions touch no lock at all: their commit is a
//     single atomic slot release.
//
// Timestamps are split in two atomics. nextTS allocates commit
// timestamps; commitTS publishes them, strictly in order, once the
// writes are installed. A snapshot is always a published timestamp,
// so every version at or below it is fully installed — the short
// install window between allocation and publication is invisible to
// snapshots. First-committer-wins stays sound because validation and
// installation happen while holding every write-set shard: two
// commits writing a common object land in different batches, which
// serialize on its shard, and the second sees the first's installed
// version (necessarily newer than its snapshot — a published snapshot
// can never be at or above an unpublished timestamp) and aborts. See
// DESIGN.md §10 and §15 for the full argument.
//
// The protocol runs over any storage.Driver. With a durable driver
// (storage/wal) the commit window also persists the batch:
// LogCommitBatch stages the commit records — full op lists included,
// so recovery replay re-certifies the history — inside the window
// (per-object log order therefore matches timestamp order), Unlock
// returns only after the records are fsynced (one fsync per batch),
// and the timestamps are published after Unlock. An acknowledged
// commit is thus always durable, and — because publication is
// strictly in timestamp order — so are all its predecessors; see
// DESIGN.md §12.
type siProtocol struct {
	store storage.Driver
	// batcher is the group-commit sequencer (batcher.go) every
	// writing commit goes through.
	batcher *commitBatcher

	// nextTS is the commit-timestamp allocation sequence.
	nextTS atomic.Uint64
	// commitTS is the published watermark: every version with a
	// timestamp at or below it is fully installed. Begins snapshot
	// this value.
	commitTS atomic.Uint64
	// snaps registers live snapshots for the GC watermark.
	snaps snapRegistry

	// Group-commit observability, resolved once at construction.
	hBatchSize    *obs.Histogram // members per executed batch
	cBatches      *obs.Counter   // batches executed
	cBatchMembers *obs.Counter   // writing commit attempts decided
}

func newSIProtocol(cfg Config, reg *obs.Registry) *siProtocol {
	st := cfg.Driver
	if st == nil {
		st = storage.NewMem()
	}
	p := &siProtocol{store: st}
	p.batcher = newCommitBatcher(p)
	if reg == nil {
		reg = obs.NewRegistry()
	}
	lbl := obs.L("engine", SI.String())
	p.hBatchSize = reg.Histogram("engine_commit_batch_size", lbl)
	p.cBatches = reg.Counter("engine_commit_batches_total", lbl)
	p.cBatchMembers = reg.Counter("engine_commit_batch_members_total", lbl)
	// A driver restored from a log already holds versions; seed the
	// allocator above them so fresh commits stay monotonic and fresh
	// snapshots see the recovered state.
	if r, ok := st.(storage.Recovered); ok {
		ts := r.RecoveredMaxTS()
		p.nextTS.Store(ts)
		p.commitTS.Store(ts)
	}
	return p
}

func (p *siProtocol) ensureSite(int) {}

func (p *siProtocol) close() error { return p.store.Close() }

func (p *siProtocol) begin(int) (txProtocol, error) {
	ticket := p.snaps.acquire(p.commitTS.Load)
	return &siTx{p: p, ticket: ticket}, nil
}

// gc truncates version chains below the oldest live snapshot and
// returns the number of versions discarded.
func (p *siProtocol) gc() int {
	return p.store.Compact(p.snaps.watermark(p.commitTS.Load()))
}

type siTx struct {
	p      *siProtocol
	ticket snapTicket
	done   bool
}

func (t *siTx) read(x model.Obj) (model.Value, error) {
	v, ok := t.p.store.ReadAt(x, t.ticket.snap)
	if !ok {
		return 0, ErrUninitialized
	}
	return v.Val, nil
}

func (t *siTx) commit(req commitReq) (uint64, error) {
	defer t.finish()
	if len(req.writes) == 0 {
		// Read-only transactions always commit under SI: no lock, no
		// validation, no publish. Mark the terminal stage anyway so the
		// commit stays attributable in /trace/{id} span trees.
		req.trace.Mark(txtrace.StageROCommit)
		return 0, nil
	}
	return t.p.batcher.commit(t, req)
}

// batchResult is one member's outcome from commitBatch, indexed like
// the batch.
type batchResult struct {
	lsn uint64
	err error
}

// commitBatch is the SI commit function: every writing commit is
// decided here, a lone commit as a batch of one. It commits a batch of
// pairwise-disjoint commit requests under one union lock window: validate every member against its own
// snapshot, install the winners at contiguous timestamps, stage one
// contiguous WAL record group (single fsync), and publish the whole
// range with one commitTS advance. Members that fail first-committer-
// wins validation get ErrConflict and fall out (Transact retries
// them). Disjointness makes per-member validation order irrelevant —
// no member writes an object another member writes, so no member's
// install can invalidate another's validation (DESIGN.md §15).
//
// Pipeline stages are marked on the leader's trace (batch[0]);
// followers mark their own batch_wait span when they wake.
func (p *siProtocol) commitBatch(batch []*batchReq) []batchResult {
	results := make([]batchResult, len(batch))
	tr := batch[0].req.trace
	nObjs := 0
	for _, m := range batch {
		nObjs += len(m.req.order)
	}
	union := make([]model.Obj, 0, nObjs)
	for _, m := range batch {
		union = append(union, m.req.order...)
	}
	lock := p.store.LockBatch(union)
	tr.Mark(txtrace.StageLockWait)
	// First-committer-wins per member: any object a member wrote that
	// gained a committed version after that member's snapshot aborts
	// the member (and only it). Holding the whole union makes every
	// member's validate-then-install atomic against any commit
	// overlapping its write set.
	winners := make([]*batchReq, 0, len(batch))
	widx := make([]int, 0, len(batch))
	for i, m := range batch {
		ok := true
		for _, x := range m.req.order {
			if lock.LatestTS(x) > m.snap {
				ok = false
				break
			}
		}
		if !ok {
			results[i].err = ErrConflict
			continue
		}
		winners = append(winners, m)
		widx = append(widx, i)
	}
	tr.Mark(txtrace.StageValidate)
	if len(winners) == 0 {
		// Every member lost; nothing to install, log or publish. The
		// leader's trace ends at validate.
		lock.Unlock()
		p.observeBatch(len(batch))
		return results
	}
	// Allocate a contiguous timestamp range for the winners; member k
	// installs at base+k+1 (arrival order — any order is correct, the
	// write sets being disjoint).
	n := uint64(len(winners))
	base := p.nextTS.Add(n) - n
	recs := make([]storage.CommitRecord, 0, len(winners))
	for k, m := range winners {
		ts := base + uint64(k) + 1
		for _, x := range m.req.order {
			if err := lock.Install(x, storage.Version{Val: m.req.writes[x], TS: ts}); err != nil {
				// Unreachable while the union shards are held (the
				// allocation order argument of siProtocol); surface it
				// rather than panic — but only after the range is
				// published, or the in-order pipeline would stall.
				if results[widx[k]].err == nil {
					results[widx[k]].err = err
				}
			}
		}
		recs = append(recs, storage.CommitRecord{TS: ts, Session: m.req.session, TxID: m.req.txid, Ops: m.req.ops})
	}
	tr.Mark(txtrace.StageInstall)
	// One contiguous record group, staged while the union shards are
	// held so per-object log order matches timestamp order.
	lock.LogCommitBatch(recs)
	if tr != nil {
		if ta, ok := lock.(storage.TraceAttacher); ok {
			ta.AttachTrace(tr)
		}
	}
	// Durable drivers append the group inside the critical section,
	// release the shards, and return only once it is fsynced — so the
	// publication below never exposes an un-synced commit.
	lock.Unlock()
	// Publish the whole batch with one in-order CAS: the range
	// (base, base+n] becomes visible atomically once every timestamp
	// at or below base is published.
	for !p.commitTS.CompareAndSwap(base, base+n) {
		runtime.Gosched()
	}
	tr.MarkAttrs(txtrace.StagePublish, map[string]int64{
		"batch_size":    int64(len(batch)),
		"batch_winners": int64(len(winners)),
	})
	// One group LSN covers every member: the group's last record is
	// fsynced, hence so is every record before it. A sync failure
	// leaves the writes visible in memory but not durable; it reaches
	// every winner, which treats its commit as failed.
	var lsn uint64
	var syncErr error
	if dw, ok := lock.(storage.DurableWindow); ok {
		lsn, syncErr = dw.Durable()
	}
	for _, i := range widx {
		results[i].lsn = lsn
		if results[i].err == nil {
			results[i].err = syncErr
		}
	}
	p.observeBatch(len(batch))
	return results
}

// observeBatch records group-commit observability for one executed
// batch of the given size.
func (p *siProtocol) observeBatch(size int) {
	p.cBatches.Inc()
	p.cBatchMembers.Add(int64(size))
	p.hBatchSize.Observe(int64(size))
}

func (t *siTx) abort() { t.finish() }

// finish releases the snapshot registration exactly once.
func (t *siTx) finish() {
	if t.done {
		return
	}
	t.done = true
	t.p.snaps.release(t.ticket)
}
