package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"sian/internal/depgraph"
	"sian/internal/model"
	"sian/internal/obs"
	"sian/internal/storage/wal"
)

// closedLoop runs one goroutine per fn, each calling its fn back to
// back until d has passed since the common start or, with n > 0, n
// times. A client stops at its first error.
func closedLoop(fns []func() error, d time.Duration, n int) ([]*loopStats, []error) {
	stats := make([]*loopStats, len(fns))
	errs := make([]error, len(fns))
	for i := range stats {
		stats[i] = &loopStats{lat: make([]int64, 0, 1<<12)}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i, f := range fns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for done := 0; n <= 0 || done < n; done++ {
				t0 := time.Now()
				if n <= 0 && t0.Sub(start) >= d {
					return
				}
				if err := f(); err != nil {
					errs[i] = err
					return
				}
				stats[i].observe(start, t0, time.Now())
			}
		}()
	}
	wg.Wait()
	return stats, errs
}

// commitCount is the number of transactions the clients committed.
func commitCount(stats []*loopStats) int64 {
	var n int64
	for _, s := range stats {
		n += int64(len(s.lat))
	}
	return n
}

// ownBytes is the heap the clients' stats hold.
func ownBytes(stats []*loopStats) int64 {
	var n int64
	for _, s := range stats {
		n += s.bytes()
	}
	return n
}

// collectLoop folds the clients' stats and errors into a round result.
func collectLoop(rr *roundResult, stats []*loopStats, errs []error, d time.Duration) {
	rr.rates = fullWindowRates(stats, d)
	rr.p99s = windowQuantile(stats, d, 0.99)
	rr.commits = commitCount(stats)
	rr.attempted += rr.commits
	for _, s := range stats {
		rr.lat = append(rr.lat, s.lat...)
	}
	for i, err := range errs {
		if err != nil {
			rr.attempted++
			rr.errs = append(rr.errs, fmt.Sprintf("client %d: %v", i, err))
		}
	}
}

func sortInt64(xs []int64) { sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) }

// setE2E sets the end-to-end metrics every commit workload shares.
func setE2E(o *outcome, rates []float64, lat []int64, p99s, heaps, recRates, setups []float64) {
	sortInt64(lat)
	o.set("commit_tps", median(rates), int64(len(rates)))
	o.set("txn_p50_us", quantile(lat, 0.5)/1e3, int64(len(lat)))
	o.set("txn_p99_us", median(p99s)/1e3, int64(len(lat)))
	o.set("heap_per_commit_b", median(heaps), int64(len(heaps)))
	o.set("recovery_commits_per_s", median(recRates), int64(len(recRates)))
	o.set("setup_s", median(setups), int64(len(setups)))
}

// noteWindows prints how the commit rate varied across windows.
func noteWindows(o *outcome, rates []float64) {
	q := quartiles(rates)
	o.note("commit rate per %v window: min %.0f, quartiles %.0f / %.0f / %.0f, max %.0f",
		time.Duration(windowNS), q[0], q[1], q[2], q[3], q[4])
}

// layerTotals sums the traced rounds' layer counters.
type layerTotals struct {
	commits, attempts, calls int64
	batches, batchMembers    int64
	syncs, logBytes          int64
	fsyncP50                 []float64
	gcCommits                int64 // commits of the rounds gcDelta covers
}

func (l *layerTotals) add(rr *roundResult) {
	l.commits += rr.commits
	l.attempts += rr.attempts
	l.calls += rr.calls
	l.batches += rr.batches
	l.batchMembers += rr.batchMembers
	l.syncs += rr.syncs
	l.logBytes += rr.logBytes
	l.fsyncP50 = append(l.fsyncP50, rr.fsyncP50)
}

func setStorage(o *outcome, st *storageTimes, commits int64) {
	rd := st.readAt.quantiles(0.5)
	lw := st.lockWait.quantiles(0.5, 0.99)
	win := st.window.quantiles(0.5, 0.99)
	o.set("storage.read_at_ns.p50", rd[0], st.readAt.count())
	o.set("storage.reads_per_txn", per(float64(st.reads.Load()), float64(commits)), commits)
	o.set("storage.lock_wait_us.p50", lw[0]/1e3, st.lockWait.count())
	o.set("storage.lock_wait_us.p99", lw[1]/1e3, st.lockWait.count())
	o.set("storage.window_us.p50", win[0]/1e3, st.window.count())
	o.set("storage.window_us.p99", win[1]/1e3, st.window.count())
}

func setWAL(o *outcome, st *storageTimes, l *layerTotals) {
	ul := st.unlock.quantiles(0.5, 0.99)
	o.set("wal.unlock_us.p50", ul[0]/1e3, st.unlock.count())
	o.set("wal.unlock_us.p99", ul[1]/1e3, st.unlock.count())
	o.set("wal.fsyncs_per_commit", per(float64(l.syncs), float64(l.commits)), l.commits)
	o.set("wal.bytes_per_commit", per(float64(l.logBytes), float64(l.commits)), l.commits)
	o.set("wal.fsync_us.p50", median(l.fsyncP50)/1e3, int64(len(l.fsyncP50)))
}

func setGo(o *outcome, g gcDelta, commits int64) {
	o.set("go.alloc_b_per_commit", per(float64(g.allocB), float64(commits)), commits)
	o.set("go.gc_cycles", float64(g.cycles), commits)
	o.set("go.gc_pause_ms", float64(g.pauseNS)/1e6, int64(g.cycles))
}

// setOverhead compares the traced run's round modes: outside timing
// against none, and the engine's built-in TxTracer against none.
func setOverhead(o *outcome, rates map[mode][]float64) {
	base := median(rates[untraced])
	o.set("trace.overhead_ratio", per(base, median(rates[traced])), int64(len(rates[traced])))
	if r := rates[txtraced]; len(r) > 0 {
		o.set("obs.txtrace_tps_ratio", per(base, median(r)), int64(len(r)))
	}
}

// reconcile reports whether the blocking-path p50s add up to the
// traced transaction p50, and the gap when they do not.
func reconcile(o *outcome, path string, sum, txP50 float64) {
	o.set("reconcile.blocking_sum_us", sum, 1)
	o.set("reconcile.gap_us", txP50-sum, 1)
	o.note("reconcile: %s p50s sum to %.1f us; traced txn p50 %.1f us; gap %.1f us (%.1f%% of the transaction)",
		path, sum, txP50, txP50-sum, 100*(txP50-sum)/txP50)
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// recoverTotals collects the traced recoveries' split: replay alone
// (SkipCertify) against replay plus certification.
type recoverTotals struct {
	replay, full     []float64 // seconds per Open
	commits          []float64
	rechecks, gcTxns []float64
}

func (r *recoverTotals) set(o *outcome) {
	n := int64(len(r.full))
	replay := median(r.replay)
	o.set("recover.replay_s", replay, int64(len(r.replay)))
	o.set("recover.certify_s", median(r.full)-replay, n)
	o.set("recover.log_commits", median(r.commits), n)
	o.set("monitor.rechecks", median(r.rechecks), n)
	o.set("monitor.gc_txns", median(r.gcTxns), n)
}

// recovered is one certified wal.Open of a log.
type recovered struct {
	open   time.Duration
	info   wal.RecoveryInfo
	latest []model.Value // per key, read before the driver closed
}

// matches checks the recovered state against a final snapshot read.
func (rv *recovered) matches(keys []model.Obj, final []model.Value) error {
	for i := range keys {
		if rv.latest[i] != final[i] {
			return fmt.Errorf("recovered %s = %d, but the server acknowledged %d", keys[i], rv.latest[i], final[i])
		}
	}
	return nil
}

// openLog recovers dir with certification on (the default options, as
// siserve opens its log) and returns the verdict, the Open time and
// each key's latest value. A verdict other than certified is an error.
// With rec non-nil it first times a replay-only Open, and attaches a
// registry to the certified one to read the monitor's counters.
func openLog(dir string, keys []model.Obj, rec *recoverTotals) (*recovered, error) {
	if rec != nil {
		t0 := time.Now()
		d, err := wal.Open(wal.Options{Dir: dir, SkipCertify: true})
		if err != nil {
			return nil, fmt.Errorf("replay-only recovery: %w", err)
		}
		rec.replay = append(rec.replay, time.Since(t0).Seconds())
		if err := d.Close(); err != nil {
			return nil, err
		}
	}
	opts := wal.Options{Dir: dir}
	if rec != nil {
		opts.Metrics = obs.NewRegistry()
	}
	t0 := time.Now()
	d, err := wal.Open(opts)
	open := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	rv := &recovered{open: open, info: d.Recovery(), latest: make([]model.Value, len(keys))}
	for i, k := range keys {
		v, _ := d.Latest(k)
		rv.latest[i] = v.Val
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	if !rv.info.Certified {
		return nil, fmt.Errorf("recovery verdict: %s", rv.info.Verdict)
	}
	if rec != nil {
		lbl := obs.L("model", depgraph.SI.String())
		rec.full = append(rec.full, open.Seconds())
		rec.commits = append(rec.commits, float64(rv.info.Commits))
		rec.rechecks = append(rec.rechecks, float64(opts.Metrics.Counter("monitor_rechecks_total", lbl).Value()))
		rec.gcTxns = append(rec.gcTxns, float64(opts.Metrics.Counter("monitor_gc_txns_total", lbl).Value()))
	}
	return rv, nil
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
