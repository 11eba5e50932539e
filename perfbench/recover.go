package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"sian/internal/engine"
	"sian/internal/model"
	"sian/internal/storage/wal"
)

// recover-contended: set-up writes a WAL log from one goroutine, in
// which recSessions sessions interleave ManualTxs over recKeys keys,
// recHotShare of picks landing on the first recHot keys — snapshots
// overlap, first-committer-wins aborts occur, and reads return
// non-latest versions. The measured operation is wal.Open with default
// options (certification on), on a pristine copy of the log each time,
// because every Open appends a segment.
const (
	recKeys     = 64
	recHot      = 8
	recHotShare = 0.8
	recSessions = 4
	// recCommits is the number of writing commits the log holds.
	recCommits = 16000
	// recSetups is how many times a run writes the log: set-up time is
	// their median, and every copy must be byte-identical.
	recSetups = 3
	// recMinOpens is the least number of recoveries a run measures.
	recMinOpens = 3
)

// genStats is what writing the contended log did.
type genStats struct {
	logged    int64 // writing commits in the log, initialisation included
	conflicts int64 // commits lost to first-committer-wins
	stale     int64 // reads that returned a version older than the latest
	reads     int64
}

// writeContendedLog writes the recover-contended log into dir. The
// log is a function of the seed alone: one goroutine drives every
// session, so the engine's commit order, timestamps and aborts repeat.
// Fsync is off while writing: what recovery reads is the log's bytes.
func writeContendedLog(dir string, seed int64) (genStats, error) {
	var gs genStats
	keys := keyNames("h", recKeys)
	wd, err := wal.Open(wal.Options{Dir: dir, NoSync: true, SnapshotEvery: -1})
	if err != nil {
		return gs, err
	}
	db, err := engine.New(engine.SI, engine.Config{Driver: wd})
	if err != nil {
		wd.Close()
		return gs, err
	}
	defer db.Close()
	if err := db.Initialize(initialValues(keys)); err != nil {
		return gs, err
	}
	gs.logged = 1
	latest := make([]model.Value, recKeys)
	for i := range latest {
		latest[i] = initValue(i)
	}
	type session struct {
		s       *engine.Session
		tx      *engine.ManualTx
		opsLeft int
		gen     valueGen
		written map[int]model.Value
	}
	sess := make([]*session, recSessions)
	for i := range sess {
		sess[i] = &session{s: db.Session(fmt.Sprintf("s%d", i)), gen: newValueGen(i), written: map[int]model.Value{}}
	}
	rng := rand.New(rand.NewSource(seed))
	pick := func() int {
		if rng.Float64() < recHotShare {
			return rng.Intn(recHot)
		}
		return recHot + rng.Intn(recKeys-recHot)
	}
	for gs.logged-1 < recCommits {
		s := sess[rng.Intn(recSessions)]
		switch {
		case s.tx == nil:
			if s.tx, err = s.s.Begin(""); err != nil {
				return gs, err
			}
			s.opsLeft = 1 + rng.Intn(4)
			clear(s.written)
		case s.opsLeft > 0:
			s.opsLeft--
			k := pick()
			v, err := s.tx.Read(keys[k])
			if err != nil {
				return gs, err
			}
			if _, own := s.written[k]; !own {
				gs.reads++
				if v != latest[k] {
					gs.stale++
				}
			}
			if rng.Intn(2) == 0 {
				nv := s.gen.mint()
				if err := s.tx.Write(keys[k], nv); err != nil {
					return gs, err
				}
				s.written[k] = nv
			}
		default:
			err := s.tx.Commit()
			s.tx = nil
			switch {
			case errors.Is(err, engine.ErrConflict):
				gs.conflicts++
			case err != nil:
				return gs, err
			case len(s.written) > 0:
				gs.logged++
				for k, v := range s.written {
					latest[k] = v
				}
			}
		}
	}
	for _, s := range sess {
		if s.tx != nil {
			s.tx.Abort()
		}
	}
	return gs, db.Close()
}

// readDir returns the contents of every file in dir, by name.
func readDir(dir string) (map[string][]byte, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		if out[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sameFiles reports whether two directory images are byte-identical.
func sameFiles(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for name, data := range a {
		if other, ok := b[name]; !ok || !bytes.Equal(data, other) {
			return false
		}
	}
	return true
}

// checkRecovered is the recover-contended correctness check: a
// certified verdict holding exactly the commits the generator logged.
func checkRecovered(info wal.RecoveryInfo, logged int64) error {
	if !info.Certified {
		return fmt.Errorf("recovery verdict: %s", info.Verdict)
	}
	if info.Commits != logged {
		return fmt.Errorf("recovered %d commits, but the generator logged %d", info.Commits, logged)
	}
	return nil
}

func runRecover(cfg config, o *outcome) error {
	pristine := filepath.Join(cfg.work, "log")
	var setups []float64
	var gs genStats
	var image map[string][]byte
	for i := 0; i < recSetups; i++ {
		dir := filepath.Join(cfg.work, fmt.Sprintf("setup-%d", i))
		t0 := time.Now()
		g, err := writeContendedLog(dir, cfg.seed)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		img, err := readDir(dir)
		if err != nil {
			return err
		}
		if i == 0 {
			gs, image = g, img
			if err := os.Rename(dir, pristine); err != nil {
				return err
			}
			continue
		}
		o.attempted++
		if !sameFiles(image, img) || g != gs {
			o.fail("set-up %d wrote a different log from the same seed", i)
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	o.note("log: %d writing commits, %d first-committer-wins aborts, %d of %d reads non-latest, %d bytes",
		gs.logged, gs.conflicts, gs.stale, gs.reads, dirBytes(pristine))

	// Opens cycle through modes in a traced run: untraced, replay-only
	// followed by a registry-attached certified Open (traced).
	modes := []mode{untraced}
	if cfg.trace {
		modes = []mode{untraced, traced}
	}
	var (
		opens, rates, heaps []float64
		tracedRates         []float64
		rec                 recoverTotals
		gc                  gcDelta
		gcCommits           int64
	)
	scratch := filepath.Join(cfg.work, "open")
	start := time.Now()
	for i := 0; i < recMinOpens*len(modes) || time.Since(start) < cfg.duration(); i++ {
		m := modes[i%len(modes)]
		if err := copyDir(pristine, scratch); err != nil {
			return err
		}
		o.attempted++
		if m == traced {
			rv, err := openLog(scratch, nil, &rec)
			if err == nil {
				err = checkRecovered(rv.info, gs.logged)
			}
			if err != nil {
				o.fail("recovery: %v", err)
				continue
			}
			tracedRates = append(tracedRates, per(float64(rv.info.Commits), rv.open.Seconds()))
			continue
		}
		heap0 := liveHeap()
		gc.start()
		t0 := time.Now()
		d, err := wal.Open(wal.Options{Dir: scratch})
		open := time.Since(t0)
		gc.stop()
		if err != nil {
			o.fail("recovery: %v", err)
			continue
		}
		info := d.Recovery()
		heaps = append(heaps, per(float64(liveHeap()-heap0), float64(info.Commits)))
		if err := d.Close(); err != nil {
			return err
		}
		if err := checkRecovered(info, gs.logged); err != nil {
			o.fail("%v", err)
			continue
		}
		gcCommits += info.Commits
		opens = append(opens, open.Seconds())
		rates = append(rates, per(float64(info.Commits), open.Seconds()))
	}
	lat := make([]int64, len(opens))
	for i, s := range opens {
		lat[i] = int64(s * 1e9)
	}
	// A recovery is this workload's transaction: commit_tps and
	// recovery_commits_per_s are both the certified replay rate.
	sortInt64(lat)
	setE2E(o, rates, lat, []float64{quantile(lat, 0.99)}, heaps, rates, setups)
	if !cfg.trace {
		return nil
	}
	o.set("wal.bytes_per_commit", per(float64(dirBytes(pristine)), float64(gs.logged)), gs.logged)
	rec.set(o)
	setGo(o, gc, gcCommits)
	o.set("trace.overhead_ratio", per(median(rates), median(tracedRates)), int64(len(tracedRates)))
	return nil
}
