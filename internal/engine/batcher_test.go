package engine

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sian/internal/model"
	"sian/internal/obs/txtrace"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestBatcherGroupsConcurrentCommits stages a deterministic group
// commit: the first committer becomes leader and stalls inside its
// lock window (the test pre-holds the shard stripes), the remaining
// committers queue up behind it, and when the window opens the next
// leader must take every queued request as one batch — one union
// window, one publish. The test then pins the accounting: two batches
// total (the stalled leader's singleton plus the grouped rest), every
// member committed, the published watermark advanced by exactly the
// number of commits, and the traces attribute the grouping (followers
// carry batch_wait spans, the grouped leader's publish span carries
// the batch size).
func TestBatcherGroupsConcurrentCommits(t *testing.T) {
	tracer := txtrace.New(txtrace.Options{})
	db, err := New(SI, Config{TxTracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	p := db.impl.(*siProtocol)

	const sessions = 8
	objs := make([]model.Obj, sessions)
	for i := range objs {
		objs[i] = model.Obj(fmt.Sprintf("g%d", i))
	}
	// Pre-hold every stripe the committers need: the first committer
	// becomes leader, takes a singleton batch, and blocks in LockBatch.
	hold := p.store.LockObjs(objs)

	var wg sync.WaitGroup
	commit := func(i int) {
		defer wg.Done()
		sess := db.Session(fmt.Sprintf("s%d", i))
		if err := sess.Transact(func(tx *Tx) error {
			return tx.Write(objs[i], model.Value(i))
		}); err != nil {
			t.Errorf("session %d: %v", i, err)
		}
	}
	wg.Add(1)
	go commit(0)
	waitFor(t, "first committer to lead", func() bool {
		p.batcher.mu.Lock()
		defer p.batcher.mu.Unlock()
		return p.batcher.leading
	})
	for i := 1; i < sessions; i++ {
		wg.Add(1)
		go commit(i)
	}
	waitFor(t, "followers to enqueue", func() bool {
		p.batcher.mu.Lock()
		defer p.batcher.mu.Unlock()
		return len(p.batcher.queue) == sessions-1
	})
	// Open the window: the stalled leader commits its singleton, steps
	// down, and the next leader must drain all seven peers as one
	// disjoint batch.
	hold.Unlock()
	wg.Wait()

	if got := p.cBatches.Value(); got != 2 {
		t.Errorf("batches executed = %d, want 2 (stalled singleton + grouped rest)", got)
	}
	if got := p.cBatchMembers.Value(); got != sessions {
		t.Errorf("batched commit requests = %d, want %d", got, sessions)
	}
	if got := p.hBatchSize.Count(); got != 2 {
		t.Errorf("batch-size observations = %d, want 2", got)
	}
	if got := p.commitTS.Load(); got != sessions {
		t.Errorf("published commitTS = %d, want %d (one timestamp per member)", got, sessions)
	}
	for i, x := range objs {
		v, ok := p.store.Latest(x)
		if !ok || v.Val != model.Value(i) {
			t.Errorf("Latest(%s) = (%+v,%v), want value %d", x, v, ok, i)
		}
	}
	if got := db.Stats().Commits; got != sessions {
		t.Errorf("commits = %d, want %d", got, sessions)
	}

	// Trace attribution: the grouped batch has one leader whose publish
	// span carries batch_size, and sessions−2 followers (everyone but
	// the two leaders) each mark their own batch_wait span.
	followers, groupedLeaders := 0, 0
	for _, td := range tracer.Finished(0) {
		for _, sp := range td.Spans {
			switch {
			case sp.Stage == txtrace.StageBatchWait:
				followers++
				if sp.Attrs["batch_size"] != sessions-1 {
					t.Errorf("follower batch_wait attrs = %v, want batch_size %d", sp.Attrs, sessions-1)
				}
			case sp.Stage == txtrace.StagePublish && sp.Attrs["batch_size"] == sessions-1:
				groupedLeaders++
			}
		}
	}
	if followers != sessions-2 {
		t.Errorf("traces with batch_wait spans = %d, want %d", followers, sessions-2)
	}
	if groupedLeaders != 1 {
		t.Errorf("leader traces publishing the grouped batch = %d, want 1", groupedLeaders)
	}
}

// TestBatcherOverlapDefersToNextBatch pins the overlap path: two
// queued requests writing the same object cannot share a batch, so
// whichever becomes leader leaves the other queued, and the next batch
// decides it — first-committer-wins against the installed version of
// the batch it overlapped. Every writing attempt, the conflicting one
// included, is a batch member.
func TestBatcherOverlapDefersToNextBatch(t *testing.T) {
	db, err := New(SI, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	p := db.impl.(*siProtocol)

	// Stall a leader on "a" so two writers of "x" queue up together.
	hold := p.store.LockObjs([]model.Obj{"a"})
	var wg sync.WaitGroup
	commit := func(sess string, obj model.Obj, val model.Value) {
		defer wg.Done()
		if err := db.Session(sess).Transact(func(tx *Tx) error {
			return tx.Write(obj, val)
		}); err != nil {
			t.Errorf("%s: %v", sess, err)
		}
	}
	wg.Add(1)
	go commit("lead", "a", 1)
	waitFor(t, "leader", func() bool {
		p.batcher.mu.Lock()
		defer p.batcher.mu.Unlock()
		return p.batcher.leading
	})
	wg.Add(2)
	go commit("w1", "x", 2)
	go commit("w2", "x", 3)
	waitFor(t, "followers to enqueue", func() bool {
		p.batcher.mu.Lock()
		defer p.batcher.mu.Unlock()
		return len(p.batcher.queue) == 2
	})
	hold.Unlock()
	wg.Wait()

	// One of the x-writers led the second batch and committed; the
	// other stayed queued, lost first-committer-wins in the third
	// batch (its snapshot predates the second), and its retry
	// committed as a fourth batch of one.
	st := db.Stats()
	if st.Commits != 3 {
		t.Errorf("commits = %d, want 3", st.Commits)
	}
	if st.Conflicts != 1 || st.Retries != 1 {
		t.Errorf("conflicts/retries = %d/%d, want 1/1 (FCW across batches)", st.Conflicts, st.Retries)
	}
	if got, want := p.cBatchMembers.Value(), st.Commits+st.Conflicts; got != want {
		t.Errorf("batch members = %d, want %d (every writing attempt)", got, want)
	}
	if got := p.cBatches.Value(); got != 4 {
		t.Errorf("batches = %d, want 4 (lead, winner, loser, retry)", got)
	}
	if v, ok := p.store.Latest("a"); !ok || v.Val != 1 {
		t.Errorf("Latest(a) = (%+v,%v), want 1", v, ok)
	}
	// Which value of x lands last depends on who led, but the loser's
	// retry always commits at the final timestamp.
	if v, ok := p.store.Latest("x"); !ok || v.TS != 3 {
		t.Errorf("Latest(x) = (%+v,%v), want the retried commit at ts 3", v, ok)
	}
}
