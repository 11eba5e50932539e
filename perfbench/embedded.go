package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"sian/internal/engine"
	"sian/internal/model"
	"sian/internal/obs"
	"sian/internal/obs/txtrace"
	"sian/internal/storage"
	"sian/internal/storage/wal"
)

// embedded-readmostly: engine.Session.Transact on the in-memory driver,
// 2 clients, a shared pool of keys drawn uniformly. Each transaction is
// embOps operations on distinct keys; every operation reads, and one in
// embWriteEvery also writes the key (a read-modify-write).
const (
	embKeys       = 100000
	embOps        = 8
	embWriteEvery = 10
	embClients    = 2
	// embRounds splits a run into rounds on a fresh engine each: the
	// engine keeps every committed transaction today, and shorter
	// rounds bound the run's memory.
	embRounds = 12
	// embBurst is the number of transactions per client in the logged
	// burst whose recovery gives this workload's recovery rate, and
	// embLogKeys the pool it runs on: the first keys of the workload's
	// pool, because recovering a log over the whole pool does not finish
	// in a run (README.md, known defects).
	embBurst   = 1000
	embLogKeys = 1000
	// embRecoveries is how many times that log is recovered per run.
	embRecoveries = 5
)

// embTimes are the engine calls timed in traced rounds.
type embTimes struct {
	read, write, commit *sampler
}

type embOp struct {
	key   int32
	write bool
}

type embClient struct {
	sess     *engine.Session
	keys     []model.Obj
	rng      *rand.Rand
	gen      valueGen
	recs     []rmw
	attempt  []rmw // the current attempt's writes
	attempts int64
	writing  int64 // committed transactions that wrote
	tm       *embTimes
}

// txn runs one logical transaction; Transact retries conflicts and the
// retried attempt replays the same plan.
func (e *embClient) txn() error {
	var keys [embOps]int32
	pickDistinct(e.rng, len(e.keys), keys[:])
	var plan [embOps]embOp
	for i, k := range keys {
		plan[i] = embOp{key: k, write: e.rng.Intn(embWriteEvery) == 0}
	}
	var t0 time.Time
	var inFn time.Duration
	if e.tm != nil {
		t0 = time.Now()
	}
	err := e.sess.Transact(func(tx *engine.Tx) error {
		e.attempts++
		e.attempt = e.attempt[:0]
		if e.tm != nil {
			f0 := time.Now()
			defer func() { inFn += time.Since(f0) }()
		}
		for _, op := range plan {
			x := e.keys[op.key]
			var v model.Value
			var err error
			if e.tm != nil {
				r0 := time.Now()
				v, err = tx.Read(x)
				e.tm.read.addSince(r0)
			} else {
				v, err = tx.Read(x)
			}
			if err != nil {
				return err
			}
			if !op.write {
				continue
			}
			nv := e.gen.mint()
			if e.tm != nil {
				w0 := time.Now()
				err = tx.Write(x, nv)
				e.tm.write.addSince(w0)
			} else {
				err = tx.Write(x, nv)
			}
			if err != nil {
				return err
			}
			e.attempt = append(e.attempt, rmw{key: op.key, pred: v, val: nv})
		}
		return nil
	})
	if e.tm != nil {
		e.tm.commit.add(int64(time.Since(t0) - inFn))
	}
	if err != nil {
		return err
	}
	if len(e.attempt) > 0 {
		e.writing++
		e.recs = append(e.recs, e.attempt...)
	}
	return nil
}

func runEmbedded(cfg config, o *outcome) error {
	keys := keyNames("e", embKeys)
	modes := roundModes(cfg, embRounds)
	roundDur := cfg.duration() / embRounds
	var (
		setups, heaps []float64
		rates         = map[mode][]float64{}
		lat           []int64
		p99s          []float64
		tm            = &embTimes{newSampler(cfg.seed + 11), newSampler(cfg.seed + 12), newSampler(cfg.seed + 13)}
		st            = newStorageTimes(cfg.seed + 20)
		tracedLat     []int64
		layer         layerTotals
		gc            gcDelta
	)
	for r, m := range modes {
		rr, err := embeddedRound(cfg, keys, r, m, roundDur, tm, st)
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
	var rec *recoverTotals
	if cfg.trace {
		rec = &recoverTotals{}
	}
	recRates, attempted, err := embeddedRecovery(cfg, keys[:embLogKeys], rec)
	o.attempted += attempted
	if err != nil {
		o.fail("logged burst: %v", err)
	}
	noteWindows(o, rates[untraced])
	setE2E(o, rates[untraced], lat, p99s, heaps, recRates, setups)
	if !cfg.trace {
		return nil
	}
	rd := tm.read.quantiles(0.5, 0.99)
	wr := tm.write.quantiles(0.5)
	cm := tm.commit.quantiles(0.5, 0.99)
	o.set("engine.read_ns.p50", rd[0], tm.read.count())
	o.set("engine.read_ns.p99", rd[1], tm.read.count())
	o.set("engine.write_ns.p50", wr[0], tm.write.count())
	o.set("engine.commit_us.p50", cm[0]/1e3, tm.commit.count())
	o.set("engine.commit_us.p99", cm[1]/1e3, tm.commit.count())
	o.set("engine.attempts_per_commit", per(float64(layer.attempts), float64(layer.commits)), layer.commits)
	o.set("engine.batch_members_per_batch", per(float64(layer.batchMembers), float64(layer.batches)), layer.batches)
	o.set("engine.read_cache_hit_ratio", 1-per(float64(st.reads.Load()), float64(tm.read.count())), tm.read.count())
	setStorage(o, st, layer.commits)
	rec.set(o)
	setGo(o, gc, layer.gcCommits)
	setOverhead(o, rates)
	sortInt64(tracedLat)
	txP50 := quantile(tracedLat, 0.5) / 1e3
	sum := (embOps*rd[0] + cm[0]) / 1e3
	reconcile(o, "8 engine reads + engine commit", sum, txP50)
	return nil
}

// embeddedRound runs one round on a fresh in-memory engine.
func embeddedRound(cfg config, keys []model.Obj, r int, m mode, d time.Duration, tm *embTimes, st *storageTimes) (*roundResult, error) {
	rr := &roundResult{}
	t0 := time.Now()
	reg := obs.NewRegistry()
	ecfg := engine.Config{Metrics: reg}
	switch m {
	case traced:
		ecfg.Driver = &timedDriver{Driver: storage.NewMem(), t: st}
	case txtraced:
		ecfg.TxTracer = txtrace.New(txtrace.Options{})
	}
	db, err := engine.New(engine.SI, ecfg)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	if err := db.Initialize(initialValues(keys)); err != nil {
		return nil, err
	}
	clients := make([]*embClient, embClients)
	for i := range clients {
		clients[i] = &embClient{sess: db.Session(fmt.Sprintf("c%d", i)), keys: keys, gen: newValueGen(i),
			rng: rand.New(rand.NewSource(cfg.seed*1000 + int64(r*embClients+i)))}
		if m == traced {
			clients[i].tm = tm
		}
	}
	rr.setup = time.Since(t0)

	heap0 := liveHeap()
	batches0, members0 := siCounter(reg, "engine_commit_batches_total"), siCounter(reg, "engine_commit_batch_members_total")
	fns := make([]func() error, len(clients))
	for i, c := range clients {
		fns[i] = c.txn
	}
	if m == untraced {
		rr.gc.start()
	}
	st.on.Store(m == traced)
	stats, errs := closedLoop(fns, d, 0)
	st.on.Store(false)
	if m == untraced {
		rr.gc.stop()
	}
	rr.batches = siCounter(reg, "engine_commit_batches_total") - batches0
	rr.batchMembers = siCounter(reg, "engine_commit_batch_members_total") - members0
	committed := make([][]rmw, len(clients))
	for i, c := range clients {
		committed[i] = c.recs
		rr.attempts += c.attempts
	}
	final, err := snapshotRead(db, keys)
	if err != nil {
		return nil, err
	}
	if err := checkChains(len(keys), committed, final); err != nil {
		rr.errs = append(rr.errs, err.Error())
	}
	committed = nil
	for _, c := range clients {
		c.recs, c.attempt = nil, nil
	}
	commits := commitCount(stats)
	rr.heapPerCommit = per(float64(liveHeap()-heap0-ownBytes(stats)-8*int64(cap(final))), float64(commits))
	collectLoop(rr, stats, errs, d)
	return rr, nil
}

// embeddedRecovery runs a fixed burst of this workload on a WAL driver
// (fsync off: the log's content, not its durability, is what recovery
// certifies), from one goroutine, and recovers the log embRecoveries
// times. The measured
// rounds run on the in-memory driver, which keeps no log; this gives
// the workload's read-mostly, many-key history a recovery rate of its
// own. It returns the recovery rates and the transactions attempted.
func embeddedRecovery(cfg config, keys []model.Obj, rec *recoverTotals) ([]float64, int64, error) {
	dir := filepath.Join(cfg.work, "embedded-log")
	wd, err := wal.Open(wal.Options{Dir: dir, NoSync: true, SnapshotEvery: -1})
	if err != nil {
		return nil, 0, err
	}
	db, err := engine.New(engine.SI, engine.Config{Driver: wd})
	if err != nil {
		wd.Close()
		return nil, 0, err
	}
	defer db.Close()
	if err := db.Initialize(initialValues(keys)); err != nil {
		return nil, 0, err
	}
	clients := make([]*embClient, embClients)
	fns := make([]func() error, len(clients))
	for i := range clients {
		c := &embClient{sess: db.Session(fmt.Sprintf("c%d", i)), keys: keys, gen: newValueGen(i),
			rng: rand.New(rand.NewSource(cfg.seed*1000 - int64(i) - 1))}
		clients[i] = c
		fns[i] = c.txn
	}
	// One goroutine alternates the clients, so the log is a function of
	// the seed; a concurrent burst occasionally stalls one transaction
	// across more than 62 commits, which recovery refuses (README.md,
	// known defects; TestKnownDefectLongSnapshotRefused).
	var attempted int64
	for n := 0; n < embBurst; n++ {
		for _, f := range fns {
			attempted++
			if err := f(); err != nil {
				return nil, attempted, err
			}
		}
	}
	final, err := snapshotRead(db, keys)
	if err != nil {
		return nil, attempted, err
	}
	committed := [][]rmw{clients[0].recs, clients[1].recs}
	if err := checkChains(len(keys), committed, final); err != nil {
		return nil, attempted, err
	}
	// Only writing commits reach the log, after the initialisation.
	logged := int64(1)
	for _, c := range clients {
		logged += c.writing
	}
	if err := db.Close(); err != nil {
		return nil, attempted, err
	}
	var rates []float64
	for i := 0; i < embRecoveries; i++ {
		rv, err := openLog(dir, keys, rec)
		if err != nil {
			return nil, attempted, err
		}
		if rv.info.Commits != logged {
			return nil, attempted, fmt.Errorf("recovered %d commits, want %d", rv.info.Commits, logged)
		}
		if err := rv.matches(keys, final); err != nil {
			return nil, attempted, err
		}
		rates = append(rates, per(float64(rv.info.Commits), rv.open.Seconds()))
	}
	return rates, attempted, nil
}
