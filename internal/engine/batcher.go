package engine

import (
	"sync"

	"sian/internal/model"
	"sian/internal/obs/txtrace"
)

// commitBatcher is the SI group-commit sequencer, the one way a
// writing commit reaches commitBatch: concurrently arriving commits
// with pairwise-disjoint write sets are collected into a batch that
// one leader commits under a single union lock window — one
// multi-shard critical section, one contiguous WAL record group with
// one fsync, one commitTS advance — collapsing N publish CAS
// spin-waits and N fsync negotiations into 1.
//
// The shape is classic leader/follower group commit. Every committing
// goroutine enqueues its request; while a leader is running, arrivals
// wait on the condition variable. When the leader finishes it hands
// results to its batch and steps down; the first still-waiting request
// becomes the next leader and drains the queue again. A request whose
// write set overlaps the forming batch stays queued for the next
// leader, which then validates it against the installed versions of
// the batch it overlapped — first-committer-wins across batches.
// Disjointness within a batch is what keeps the protocol sound:
// per-member validation order is irrelevant because no member can
// invalidate another (DESIGN.md §15).
//
// Under no concurrency every commit is a batch of one.
type commitBatcher struct {
	p *siProtocol

	mu      sync.Mutex
	cond    *sync.Cond
	leading bool
	queue   []*batchReq
}

// maxBatch bounds one batch; requests beyond it stay queued for the
// next leader. The cap keeps the union lock window and the contiguous
// WAL group bounded under extreme fan-in.
const maxBatch = 128

// batchReq is one queued commit request. The result fields (decided,
// size, lsn, err) are written only under the batcher mutex, so
// followers reading them after waking are race-free.
type batchReq struct {
	req     *commitReq
	snap    uint64
	decided bool // a leader committed (or conflicted) the request
	size    int  // members in the deciding batch, for trace attribution
	lsn     uint64
	err     error
}

func newCommitBatcher(p *siProtocol) *commitBatcher {
	b := &commitBatcher{p: p}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// commit runs one writing commit request through the sequencer and
// returns the request's durable LSN and commit error.
func (b *commitBatcher) commit(t *siTx, req commitReq) (uint64, error) {
	r := &batchReq{req: &req, snap: t.ticket.snap}
	b.mu.Lock()
	b.queue = append(b.queue, r)
	for !r.decided && b.leading {
		b.cond.Wait()
	}
	if r.decided {
		size, lsn, err := r.size, r.lsn, r.err
		b.mu.Unlock()
		// The follower marks its own wait span — traces are single-
		// goroutine, so the leader cannot mark them on its behalf.
		req.trace.MarkAttrs(txtrace.StageBatchWait, map[string]int64{"batch_size": int64(size)})
		return lsn, err
	}
	// No leader running: lead a batch seeded with our own request.
	b.leading = true
	batch := b.take(r)
	b.mu.Unlock()

	results := b.p.commitBatch(batch)

	b.mu.Lock()
	for i, m := range batch {
		m.lsn, m.err = results[i].lsn, results[i].err
		m.size = len(batch)
		m.decided = true
	}
	b.leading = false
	b.cond.Broadcast()
	lsn, err := r.lsn, r.err
	b.mu.Unlock()
	return lsn, err
}

// take drains the queue into a batch of pairwise-disjoint write sets
// seeded by the leader's own request, in arrival order. Requests
// overlapping the growing union, and requests beyond the size cap,
// stay queued for the next leader. Caller holds b.mu.
func (b *commitBatcher) take(seed *batchReq) []*batchReq {
	batch := []*batchReq{seed}
	union := make(map[model.Obj]struct{}, len(seed.req.order))
	for _, x := range seed.req.order {
		union[x] = struct{}{}
	}
	rest := b.queue[:0]
	for _, r := range b.queue {
		if r == seed {
			continue
		}
		if len(batch) >= maxBatch || overlaps(union, r.req.order) {
			rest = append(rest, r)
			continue
		}
		for _, x := range r.req.order {
			union[x] = struct{}{}
		}
		batch = append(batch, r)
	}
	// Zero the tail so dropped *batchReq pointers don't pin memory.
	for i := len(rest); i < len(b.queue); i++ {
		b.queue[i] = nil
	}
	b.queue = rest
	return batch
}

// overlaps reports whether any of objs is in union.
func overlaps(union map[model.Obj]struct{}, objs []model.Obj) bool {
	for _, x := range objs {
		if _, clash := union[x]; clash {
			return true
		}
	}
	return false
}
