// Command perfbench is the repository benchmark: three seeded,
// closed-loop workloads that time the SI engine, its storage drivers,
// the siwire server and certified WAL recovery from outside, through
// their public functions. See README.md for why each workload exists
// and what each metric should move.
//
//	perfbench --workload wire-logged --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set, measured with tracing off; with
// --trace 1 they are the per-layer set. The lines before it print
// every metric with its unit and sample count. The exit code is 1 when
// a correctness check fails, 2 on a usage or set-up error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit; BENCHMARK.json
// declares the same names (TestBenchmarkJSONMatches pins them).
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees, measured with tracing off.
var endToEnd = []metricDef{
	{"commit_tps", "1/s"},
	{"txn_p50_us", "us"},
	{"txn_p99_us", "us"},
	{"heap_per_commit_b", "B"},
	{"recovery_commits_per_s", "1/s"},
	{"setup_s", "s"},
	{"ok_share", "ratio"},
}

// perLayer is measured by a traced run, timing calls into each module
// from this package. A layer a workload does not call reports 0.
var perLayer = []metricDef{
	{"siwire.begin_us.p50", "us"},
	{"siwire.read_us.p50", "us"},
	{"siwire.read_us.p99", "us"},
	{"siwire.write_us.p50", "us"},
	{"siwire.commit_us.p50", "us"},
	{"siwire.commit_us.p99", "us"},
	{"siwire.calls_per_txn", "count"},
	{"engine.read_ns.p50", "ns"},
	{"engine.read_ns.p99", "ns"},
	{"engine.write_ns.p50", "ns"},
	{"engine.commit_us.p50", "us"},
	{"engine.commit_us.p99", "us"},
	{"engine.attempts_per_commit", "count"},
	{"engine.batch_members_per_batch", "count"},
	{"engine.read_cache_hit_ratio", "ratio"},
	{"storage.read_at_ns.p50", "ns"},
	{"storage.reads_per_txn", "count"},
	{"storage.lock_wait_us.p50", "us"},
	{"storage.lock_wait_us.p99", "us"},
	{"storage.window_us.p50", "us"},
	{"storage.window_us.p99", "us"},
	{"wal.unlock_us.p50", "us"},
	{"wal.unlock_us.p99", "us"},
	{"wal.fsyncs_per_commit", "count"},
	{"wal.bytes_per_commit", "B"},
	{"wal.fsync_us.p50", "us"},
	{"recover.replay_s", "s"},
	{"recover.certify_s", "s"},
	{"recover.log_commits", "count"},
	{"monitor.rechecks", "count"},
	{"monitor.gc_txns", "count"},
	{"go.alloc_b_per_commit", "B"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"obs.txtrace_tps_ratio", "ratio"},
	{"reconcile.blocking_sum_us", "us"},
	{"reconcile.gap_us", "us"},
}

// config is one run's parameters.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	work    string // scratch directory for WAL logs, removed at exit
}

// duration is the measured time of one run.
func (c config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// outcome collects what a workload measured and checked.
type outcome struct {
	attempted, failed int64
	errs              []string
	values            map[string]float64
	samples           map[string]int64
	notes             []string
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, samples: map[string]int64{}}
}

// set records a metric value with the number of samples behind it.
func (o *outcome) set(name string, v float64, n int64) {
	o.values[name] = v
	o.samples[name] = n
}

// fail records a failed operation or correctness check.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// setOKShare derives ok_share from the attempted and failed counts.
func (o *outcome) setOKShare() {
	if o.attempted == 0 {
		o.attempted = 1
		o.failed = 1
		o.errs = append(o.errs, "nothing was attempted")
	}
	o.set("ok_share", 1-float64(o.failed)/float64(o.attempted), o.attempted)
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config, *outcome) error{
	"wire-logged":         runWire,
	"embedded-readmostly": runEmbedded,
	"recover-contended":   runRecover,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "wire-logged, embedded-readmostly, recover-contended, or all")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 30, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	work := fs.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for logs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
	}
	for _, n := range names {
		if workloads[n] == nil {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", n)
			return 2
		}
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	total := resultJSON{Correct: true, Metrics: map[string]metricJSON{}}
	for _, n := range names {
		dir := filepath.Join(*work, fmt.Sprintf("%s-%d", n, os.Getpid()))
		cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, work: dir}
		o := newOutcome()
		err := workloads[n](cfg, o)
		if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
			err = rerr
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", n, err)
			return 2
		}
		o.setOKShare()
		printOutcome(stdout, n, cfg, o, defs)
		prefix := ""
		if len(names) > 1 {
			prefix = n + "/"
		}
		for _, d := range defs {
			total.Metrics[prefix+d.name] = metricJSON{Value: o.values[d.name], Unit: d.unit}
		}
		total.Attempted += o.attempted
		total.Failed += o.failed
		total.Correct = total.Correct && len(o.errs) == 0
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

// printOutcome prints every metric of the run with its unit and sample
// count, then the workload's notes and correctness failures.
func printOutcome(w io.Writer, name string, cfg config, o *outcome, defs []metricDef) {
	fmt.Fprintf(w, "== %s seed=%d seconds=%g trace=%v\n", name, cfg.seed, cfg.seconds, cfg.trace)
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok {
			fmt.Fprintf(w, "  %-32s %14s %-6s (not on this workload's path)\n", d.name, "0", d.unit)
			continue
		}
		fmt.Fprintf(w, "  %-32s %14.4f %-6s n=%d\n", d.name, v, d.unit, o.samples[d.name])
	}
	for _, n := range o.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, e := range o.errs {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
}
