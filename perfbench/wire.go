package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"time"

	"sian/internal/engine"
	"sian/internal/model"
	"sian/internal/obs"
	"sian/internal/obs/txtrace"
	"sian/internal/siwire"
	"sian/internal/storage"
	"sian/internal/storage/wal"
)

// wire-logged: the stack siserve builds (wal.Open → engine.New(SI) →
// siwire.NewServer) on loopback, driven by 2 siwire clients. Each
// transaction makes 3 read-modify-writes on distinct keys drawn
// uniformly from a shared pool: begin + 3 reads + 3 writes + commit =
// 8 round trips. The timed rounds append every commit record to the
// WAL without fsync: on the reference host the fsync tail swings
// several-fold from minute to minute, which no run length steadies
// (README.md). The logged burst that ends a run fsyncs before every
// ack, as siserve does, and gives the WAL layer's fsync numbers.
const (
	wireKeys    = 10000
	wireRMWs    = 3
	wireClients = 2
	wireRounds  = 8
	// wireBurst is the number of transactions per client in the logged
	// burst that ends a run; its log is recovered wireRecoveries times.
	// A fixed size keeps the recovery input the same however fast the
	// server commits.
	wireBurst      = 2500
	wireRecoveries = 3
	maxRetries     = 1000
)

// mode is what a round of a traced run measures.
type mode int

const (
	untraced mode = iota // end-to-end metrics, nothing timed inside
	traced               // every call into a layer timed from outside
	txtraced             // the engine's built-in TxTracer on
)

// roundModes assigns modes to a run's rounds: all untraced in an
// end-to-end run; cycling traced, untraced, txtraced in a traced run.
func roundModes(cfg config, rounds int) []mode {
	ms := make([]mode, rounds)
	if cfg.trace {
		cycle := [...]mode{traced, untraced, txtraced}
		for i := range ms {
			ms[i] = cycle[i%len(cycle)]
		}
	}
	return ms
}

// keyNames returns the pool's object names.
func keyNames(prefix string, n int) []model.Obj {
	keys := make([]model.Obj, n)
	for i := range keys {
		keys[i] = model.Obj(fmt.Sprintf("%s%06d", prefix, i))
	}
	return keys
}

// initialValues maps every pool key to its initValue.
func initialValues(keys []model.Obj) map[model.Obj]model.Value {
	vals := make(map[model.Obj]model.Value, len(keys))
	for i, k := range keys {
		vals[k] = initValue(i)
	}
	return vals
}

// pickDistinct draws len(out) distinct key indices uniformly.
func pickDistinct(rng *rand.Rand, n int, out []int32) {
	for i := range out {
	again:
		k := int32(rng.Intn(n))
		for _, p := range out[:i] {
			if p == k {
				goto again
			}
		}
		out[i] = k
	}
}

// wireTimes are the siwire client calls timed in traced rounds.
type wireTimes struct {
	begin, read, write, commit *sampler
}

type wireClient struct {
	c        *siwire.Client
	keys     []model.Obj
	rng      *rand.Rand
	gen      valueGen
	recs     []rmw
	attempts int64
	calls    int64
	tm       *wireTimes // nil outside traced rounds
}

// timed runs f, adding its duration to s when the round is traced.
func timed(s *sampler, f func() error) error {
	if s == nil {
		return f()
	}
	t0 := time.Now()
	err := f()
	s.addSince(t0)
	return err
}

// txn runs one logical transaction to commit, retrying conflicts.
func (w *wireClient) txn() error {
	var ks [wireRMWs]int32
	pickDistinct(w.rng, len(w.keys), ks[:])
	var bs, rs, ws, cs *sampler
	if w.tm != nil {
		bs, rs, ws, cs = w.tm.begin, w.tm.read, w.tm.write, w.tm.commit
	}
	for attempt := 0; attempt < maxRetries; attempt++ {
		w.attempts++
		w.calls += 2 + 2*wireRMWs
		if err := timed(bs, w.c.Begin); err != nil {
			return fmt.Errorf("begin: %w", err)
		}
		var done [wireRMWs]rmw
		for i, k := range ks {
			var v model.Value
			err := timed(rs, func() (err error) { v, err = w.c.Read(w.keys[k]); return err })
			if err != nil {
				return fmt.Errorf("read: %w", err)
			}
			nv := w.gen.mint()
			if err := timed(ws, func() error { return w.c.Write(w.keys[k], nv) }); err != nil {
				return fmt.Errorf("write: %w", err)
			}
			done[i] = rmw{key: k, pred: v, val: nv}
		}
		err := timed(cs, func() error { _, err := w.c.Commit(); return err })
		if errors.Is(err, siwire.ErrConflict) {
			continue
		}
		if err != nil {
			return fmt.Errorf("commit: %w", err)
		}
		w.recs = append(w.recs, done[:]...)
		return nil
	}
	return fmt.Errorf("transaction still conflicting after %d attempts", maxRetries)
}

// walSyncs reads the WAL's fsync counter.
func walSyncs(reg *obs.Registry) int64 { return reg.Counter("wal_syncs_total").Value() }

func siCounter(reg *obs.Registry, name string) int64 {
	return reg.Counter(name, obs.L("engine", engine.SI.String())).Value()
}

func runWire(cfg config, o *outcome) error {
	keys := keyNames("k", wireKeys)
	modes := roundModes(cfg, wireRounds)
	roundDur := cfg.duration() / wireRounds
	var (
		setups, heaps []float64
		rates         = map[mode][]float64{}
		lat           []int64
		p99s          []float64
		tm            = &wireTimes{newSampler(cfg.seed + 11), newSampler(cfg.seed + 12), newSampler(cfg.seed + 13), newSampler(cfg.seed + 14)}
		st            = newStorageTimes(cfg.seed + 20)
		tracedLat     []int64
		rec           recoverTotals
		layer         layerTotals
		gc            gcDelta
	)
	for r, m := range modes {
		rr, err := wireRound(cfg, keys, r, m, wireRun{d: roundDur}, tm, st)
		if err != nil {
			return err
		}
		o.attempted += rr.attempted
		for _, e := range rr.errs {
			o.fail("round %d: %s", r, e)
		}
		rates[m] = append(rates[m], rr.rates...)
		setups = append(setups, rr.setup.Seconds())
		switch m {
		case untraced:
			lat = append(lat, rr.lat...)
			p99s = append(p99s, rr.p99s...)
			heaps = append(heaps, rr.heapPerCommit)
			gc.add(rr.gc)
			layer.gcCommits += rr.commits
		case traced:
			tracedLat = append(tracedLat, rr.lat...)
			layer.add(rr)
		}
	}
	// The burst runs in traced mode in a traced run, through the timing
	// wrapper with its own samplers, so every traced run proves the
	// wrapper leaves the logged commits and the verdict unchanged.
	burstMode, rt := untraced, (*recoverTotals)(nil)
	if cfg.trace {
		burstMode, rt = traced, &rec
	}
	bst := newStorageTimes(cfg.seed + 30)
	br, err := wireRound(cfg, keys, len(modes), burstMode, wireRun{burst: wireBurst, rec: rt},
		&wireTimes{newSampler(1), newSampler(2), newSampler(3), newSampler(4)}, bst)
	if err != nil {
		return err
	}
	o.attempted += br.attempted
	for _, e := range br.errs {
		o.fail("logged burst: %s", e)
	}
	noteWindows(o, rates[untraced])
	setE2E(o, rates[untraced], lat, p99s, heaps, br.recoverRates, setups)
	if !cfg.trace {
		return nil
	}
	q := func(s *sampler) []float64 { return s.quantiles(0.5, 0.99) }
	b, rd, wr, cm := q(tm.begin), q(tm.read), q(tm.write), q(tm.commit)
	o.set("siwire.begin_us.p50", b[0]/1e3, tm.begin.count())
	o.set("siwire.read_us.p50", rd[0]/1e3, tm.read.count())
	o.set("siwire.read_us.p99", rd[1]/1e3, tm.read.count())
	o.set("siwire.write_us.p50", wr[0]/1e3, tm.write.count())
	o.set("siwire.commit_us.p50", cm[0]/1e3, tm.commit.count())
	o.set("siwire.commit_us.p99", cm[1]/1e3, tm.commit.count())
	o.set("siwire.calls_per_txn", per(float64(layer.calls), float64(layer.commits)), layer.commits)
	o.set("engine.attempts_per_commit", per(float64(layer.attempts), float64(layer.commits)), layer.commits)
	o.set("engine.batch_members_per_batch", per(float64(layer.batchMembers), float64(layer.batches)), layer.batches)
	// Wire reads go through ManualTx, which binds no read cache: every
	// engine read reaches storage.
	o.set("engine.read_cache_hit_ratio", 1-per(float64(st.reads.Load()), float64(layer.attempts*wireRMWs)), layer.commits)
	setStorage(o, st, layer.commits)
	var burst layerTotals
	burst.add(br)
	setWAL(o, bst, &burst)
	rec.set(o)
	setGo(o, gc, layer.gcCommits)
	setOverhead(o, rates)
	sortInt64(tracedLat)
	txP50 := quantile(tracedLat, 0.5) / 1e3
	sum := (b[0] + wireRMWs*rd[0] + wireRMWs*wr[0] + cm[0]) / 1e3
	reconcile(o, "siwire begin + 3 reads + 3 writes + commit", sum, txP50)
	return nil
}

// roundResult is what one round measured.
type roundResult struct {
	setup         time.Duration
	rates         []float64
	lat           []int64
	p99s          []float64 // per-window p99 latency, ns
	commits       int64
	attempted     int64
	errs          []string
	heapPerCommit float64
	recoverRates  []float64
	gc            gcDelta
	// traced rounds only
	attempts, calls       int64
	batches, batchMembers int64
	syncs                 int64
	logBytes              int64
	fsyncP50              float64
}

// wireRun says how long a round runs: for d with fsync off, or, in the
// logged burst, for burst transactions per client with fsync on, after
// which the round's log is recovered wireRecoveries times (with rec,
// also replay-only).
type wireRun struct {
	d     time.Duration
	burst int
	rec   *recoverTotals
}

// wireRound sets up a fresh server stack, drives it, and checks it.
func wireRound(cfg config, keys []model.Obj, r int, m mode, run wireRun, tm *wireTimes, st *storageTimes) (*roundResult, error) {
	rr := &roundResult{}
	dir := filepath.Join(cfg.work, fmt.Sprintf("wire-%d", r))
	t0 := time.Now()
	reg := obs.NewRegistry()
	wd, err := wal.Open(wal.Options{Dir: dir, SnapshotEvery: -1, Metrics: reg, NoSync: run.burst == 0})
	if err != nil {
		return nil, err
	}
	var drv storage.Driver = wd
	ecfg := engine.Config{Metrics: reg}
	switch m {
	case traced:
		drv = &timedDriver{Driver: wd, t: st}
	case txtraced:
		ecfg.TxTracer = txtrace.New(txtrace.Options{})
	}
	ecfg.Driver = drv
	db, err := engine.New(engine.SI, ecfg)
	if err != nil {
		wd.Close()
		return nil, err
	}
	defer db.Close()
	if err := db.Initialize(initialValues(keys)); err != nil {
		return nil, err
	}
	srv := siwire.NewServer(siwire.ServerConfig{DB: db})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	clients := make([]*wireClient, wireClients)
	for i := range clients {
		c, err := siwire.Dial(ln.Addr().String())
		if err != nil {
			srv.Close()
			<-served
			return nil, err
		}
		clients[i] = &wireClient{c: c, keys: keys, gen: newValueGen(i),
			rng: rand.New(rand.NewSource(cfg.seed*1000 + int64(r*wireClients+i)))}
		if m == traced {
			clients[i].tm = tm
		}
	}
	rr.setup = time.Since(t0)

	heap0, log0 := liveHeap(), dirBytes(dir)
	syncs0, batches0, members0 := walSyncs(reg), siCounter(reg, "engine_commit_batches_total"), siCounter(reg, "engine_commit_batch_members_total")
	if m == untraced {
		rr.gc.start()
	}
	fns := make([]func() error, len(clients))
	for i, c := range clients {
		fns[i] = c.txn
	}
	st.on.Store(m == traced)
	stats, errs := closedLoop(fns, run.d, run.burst)
	st.on.Store(false)
	if m == untraced {
		rr.gc.stop()
	}
	for _, c := range clients {
		c.c.Close()
	}
	serr := srv.Close()
	if err := <-served; err != nil && serr == nil {
		serr = err
	}
	if serr != nil {
		return nil, serr
	}

	committed := make([][]rmw, len(clients))
	for i, c := range clients {
		committed[i] = c.recs
		rr.attempts += c.attempts
		rr.calls += c.calls
	}
	rr.batches = siCounter(reg, "engine_commit_batches_total") - batches0
	rr.batchMembers = siCounter(reg, "engine_commit_batch_members_total") - members0
	rr.syncs = walSyncs(reg) - syncs0
	rr.fsyncP50 = reg.Histogram("wal_sync_ns").Quantile(0.5)

	final, err := snapshotRead(db, keys)
	if err != nil {
		return nil, err
	}
	if err := checkChains(len(keys), committed, final); err != nil {
		rr.errs = append(rr.errs, err.Error())
	}
	committed = nil
	for _, c := range clients {
		c.recs = nil
	}
	commits := commitCount(stats)
	rr.heapPerCommit = per(float64(liveHeap()-heap0-ownBytes(stats)-8*int64(cap(final))), float64(commits))
	collectLoop(rr, stats, errs, run.d)
	if err := db.Close(); err != nil {
		return nil, err
	}
	rr.logBytes = dirBytes(dir) - log0

	if run.burst == 0 {
		return rr, nil
	}
	// Restart: the log must recover as certified, holding exactly the
	// acknowledged commits (plus the key-pool initialisation) and the
	// state the final snapshot read.
	for i := 0; i < wireRecoveries; i++ {
		rv, err := openLog(dir, keys, run.rec)
		if err != nil {
			rr.errs = append(rr.errs, err.Error())
			return rr, nil
		}
		rr.recoverRates = append(rr.recoverRates, per(float64(rv.info.Commits), rv.open.Seconds()))
		if want := rr.commits + 1; rv.info.Commits != want {
			rr.errs = append(rr.errs, fmt.Sprintf("recovered %d commits, want %d acknowledged + 1 initialisation", rv.info.Commits, want))
		}
		if err := rv.matches(keys, final); err != nil {
			rr.errs = append(rr.errs, err.Error())
		}
	}
	return rr, nil
}

// snapshotRead reads every key in one transaction.
func snapshotRead(db *engine.DB, keys []model.Obj) ([]model.Value, error) {
	tx, err := db.Session("final-read").Begin("final-read")
	if err != nil {
		return nil, err
	}
	defer tx.Abort()
	out := make([]model.Value, len(keys))
	for i, k := range keys {
		if out[i], err = tx.Read(k); err != nil {
			return nil, fmt.Errorf("final read of %s: %w", k, err)
		}
	}
	return out, nil
}
