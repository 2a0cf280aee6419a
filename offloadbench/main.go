// Command offloadbench is the repository's end-to-end benchmark: the
// paper's offload scenario — a host invoking word count and string match
// through smartFAM on multicore SD nodes over a modelled 1 GbE link — run
// against the system as mcsdd deploys it, with a per-layer breakdown from
// a separately traced run. See README.md for the workloads and metrics.
//
// Usage:
//
//	offloadbench --workload offload-scan --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics (end-to-end with --trace 0,
// per-layer with --trace 1).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is one run's settings: the command line plus the workload sizes,
// which the self-test shrinks.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	setups   int    // set-ups timed per run; the median is reported
	workDir  string // parent of the run's scratch directory

	scanBytes     int64
	scanFragments int
	scanKeys      int

	smallFiles  int
	rate        float64
	ladder      []float64
	rungSeconds float64

	fleetNodes     int
	fleetBytes     int64
	fleetFragBytes int
	fleetCorpora   int
	diskBps        float64
}

func defaultConfig() config {
	return config{
		setups:  5,
		workDir: ".bench_work",

		scanBytes:     16 << 20,
		scanFragments: 16,
		scanKeys:      6,

		smallFiles:  64,
		rate:        200,
		ladder:      []float64{400, 800},
		rungSeconds: 2,

		fleetNodes:     4,
		fleetBytes:     3 << 19,
		fleetFragBytes: 128 << 10,
		fleetCorpora:   3,
		diskBps:        1e6,
	}
}

// env is one set-up workload, ready to measure.
type env interface {
	params() map[string]any
	// measure runs the workload's ops for d, booking them into p.
	measure(ctx context.Context, d time.Duration, p *phase)
	probe() *probe
	tracer() *tracer
	nodes() []*sdNode
	// honesty fails a phase that ran a different path than the one the
	// workload exists to measure.
	honesty(p *phase) error
	extras(p *phase) []metric
	// close stops every node; once it returns nothing writes into the
	// set-up's directory.
	close() error
}

var setups = map[string]func(context.Context, config, string) (env, error){
	"offload-scan":      setupOffloadScan,
	"invoke-small":      setupInvokeSmall,
	"fleet-ingest-scan": setupFleet,
}

// pathTolerance bounds how far the server ops per op may differ between
// the untraced and traced halves of a traced run. A flip to the polling
// path multiplies them; run-to-run variation of the push path stays far
// inside this.
const pathTolerance = 0.25

func main() {
	// An interrupt or SIGTERM cancels the run; teardown still stops every
	// node and removes the scratch directory.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM) //mcsdlint:allow ctxflow -- main is the benchmark binary's entry point
	defer stop()
	cfg, err := parseFlags(os.Args[1:])
	if err == nil {
		var rep *report
		if rep, err = runBench(ctx, cfg); err == nil {
			err = rep.print(os.Stdout)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "offloadbench: %v\n", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("offloadbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: offload-scan, invoke-small or fleet-ingest-scan")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&cfg.seconds, "seconds", 25, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := setups[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if *trace != 0 && *trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1")
	}
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("--seconds must be positive")
	}
	cfg.trace = *trace == 1
	return cfg, nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "offloadbench: "+format+"\n", args...)
}

// report is one run's result.
type report struct {
	cfg       config
	params    map[string]any
	setupS    []float64
	correct   bool // every output matched its reference
	valid     bool // the open-loop generator kept its schedule (see phase.onSchedule)
	attempted int
	failed    int
	metrics   []metric // the result line: end-to-end or per-layer
	extras    []metric // further figures for the log
	spans     string   // per-span totals of a traced run
}

// runBench sets the workload up cfg.setups times, keeps the last set-up,
// measures it and tears everything down again.
func runBench(ctx context.Context, cfg config) (rep *report, err error) {
	work := filepath.Join(cfg.workDir, fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	// Every removal is a single attempt: once close has returned nothing
	// may write into a node's directory, so a removal that fails (say,
	// "directory not empty") is a teardown defect and fails the run.
	defer func() {
		if rmErr := os.RemoveAll(work); err == nil && rmErr != nil {
			err = rmErr
		}
	}()
	rep = &report{cfg: cfg, correct: true, valid: true}
	var e env
	var dir string
	for i := 0; i < cfg.setups; i++ {
		if e != nil {
			// Only the last set-up is measured; the earlier ones are
			// torn down with their data.
			if err := e.close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		dir, err = filepath.Abs(filepath.Join(work, fmt.Sprintf("setup%d", i)))
		if err == nil {
			err = os.MkdirAll(dir, 0o755)
		}
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if e, err = setups[cfg.workload](ctx, cfg, dir); err != nil {
			return nil, err
		}
		rep.setupS = append(rep.setupS, time.Since(t0).Seconds())
	}
	defer func() {
		if cErr := e.close(); err == nil && cErr != nil {
			rep, err = nil, cErr
		}
	}()
	rep.params = e.params()

	d := time.Duration(cfg.seconds * float64(time.Second))
	measure := func(traced bool, d time.Duration) *phase {
		p := &phase{traced: traced}
		e.tracer().on.Store(traced)
		p.begin(e.probe())
		e.measure(ctx, d, p)
		p.finish(e.probe(), e.tracer(), e.nodes())
		e.tracer().on.Store(false)
		return p
	}
	book := func(p *phase) error {
		rep.attempted += p.ops
		rep.failed += p.failures()
		rep.correct = rep.correct && p.wrong == 0
		if _, ok := e.(*invokeSmall); ok {
			rep.valid = rep.valid && p.onSchedule()
		}
		return e.honesty(p)
	}

	if !cfg.trace {
		mem := startMemSampler()
		p := measure(false, d)
		memPeak := mem.finish()
		if err := book(p); err != nil {
			return nil, err
		}
		rep.metrics = endToEnd(p, rep.setupS, memPeak)
		rep.extras = append(commonExtras(p), e.extras(p)...)
		if w, ok := e.(*invokeSmall); ok {
			rep.extras = append(rep.extras, w.ladderExtras(ctx, p, rep)...)
		}
	} else {
		// The traced half sits between two untraced quarters, so drift
		// over the run (warm-up, heap growth, the machine's other load)
		// weighs on the untraced and the traced figures alike.
		u1 := measure(false, d/4)
		b := measure(true, d/2)
		u2 := measure(false, d/4)
		for _, p := range []*phase{u1, b, u2} {
			if err := book(p); err != nil {
				return nil, err
			}
		}
		for _, u := range []*phase{u1, u2} {
			if err := checkSamePath(u, b, pathTolerance); err != nil {
				return nil, err
			}
		}
		untraced := quantile(append(append([]time.Duration(nil), u1.lat...), u2.lat...), 0.5)
		overhead := 0.0
		if untraced > 0 {
			overhead = 100 * float64(quantile(b.lat, 0.5)-untraced) / float64(untraced)
		}
		rep.metrics = append(layerMetrics(b), metric{"trace.overhead_pct", "%", overhead})
		rep.extras = []metric{
			{"untraced_p50_ms", "ms", ms(untraced)},
			{"traced_p50_ms", "ms", ms(quantile(b.lat, 0.5))},
			{"untraced_nfs_ops_per_op", "count", (u1.nfsOpsPerOp() + u2.nfsOpsPerOp()) / 2},
			{"traced_nfs_ops_per_op", "count", b.nfsOpsPerOp()},
			{"spans", "count", float64(len(b.spans))},
		}
		rep.spans = spanSummary(b.spans)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("run interrupted: %w", err)
	}
	// A late generator says the machine was too busy to keep the
	// schedule, not that an output was wrong: the run is marked invalid in
	// its record, and correct speaks only of the outputs.
	if !rep.valid {
		logf("%s: the generator fell behind in most windows; run marked invalid", cfg.workload)
	}
	return rep, nil
}

// endToEnd derives the metrics a user of the system sees, from an
// untraced phase: the ones BENCHMARK.json gates.
func endToEnd(p *phase, setupS []float64, mem float64) []metric {
	s := p.summarize()
	wcP50 := quantile(p.wcLat, 0.5)
	if len(p.windows) > 0 {
		// In the open loop every op is one word count.
		wcP50 = s.p50
	}
	n := float64(max(p.ops, 1))
	return []metric{
		{"setup_s", "s", median(setupS)},
		{"p50_ms", "ms", ms(s.p50)},
		{"wc_p50_ms", "ms", ms(wcP50)},
		{"scan_mb_per_s", "MB/s", s.scanMBps},
		{"host_link_bytes_per_op", "B", (p.delta("link.bytes_up") + p.delta("link.bytes_down")) / n},
		{"mem_peak_mb", "MB", mem},
	}
}

// commonExtras are the further figures of an untraced phase: the tails,
// which the record reports but BENCHMARK.json does not gate (see
// README.md), their percentiles and sample counts, and the failure share.
func commonExtras(p *phase) []metric {
	s := p.summarize()
	wcPct, wcTail := tail(p.wcLat)
	if len(p.windows) > 0 {
		wcPct, wcTail = s.pct, s.tail
	}
	return []metric{
		{"tail_ms", "ms", ms(s.tail)},
		{"tail_pct", "pct", s.pct},
		{"tail_samples", "count", float64(s.samples)},
		{"wc_tail_ms", "ms", ms(wcTail)},
		{"wc_tail_pct", "pct", wcPct},
		{"wc_samples", "count", float64(len(p.wcLat))},
		{"fail_frac", "ratio", float64(p.failures()) / float64(max(p.ops, 1))},
		{"ops_per_s", "1/s", div(float64(p.ops), p.end.Sub(p.start).Seconds())},
	}
}

// ladderExtras runs the rate ladder after the fixed-rate phase p and
// books the rungs that met the limit. Refusals and timeouts on the first
// rung that misses it are the overload the ladder probes for and are
// reported, not booked as failures; a wrong output on any rung is.
func (w *invokeSmall) ladderExtras(ctx context.Context, p *phase, rep *report) []metric {
	var out []metric
	maxRate, achieved := 0.0, 0.0
	for i, r := range w.ladder(ctx, p) {
		if i > 0 {
			if r.pass {
				rep.attempted += r.ph.ops
				rep.failed += r.ph.failures()
			} else {
				rep.attempted += r.ph.wrong
				rep.failed += r.ph.wrong
				out = append(out, metric{"overload_failures", "count", float64(r.failures - r.ph.wrong)})
			}
			rep.correct = rep.correct && r.ph.wrong == 0
		}
		if r.pass && r.rate >= maxRate {
			maxRate, achieved = r.rate, r.achieved
		}
		out = append(out, metric{fmt.Sprintf("rung_%g_p99_ms", r.rate), "ms", ms(r.p99)})
	}
	return append(out, metric{"max_rate_ops", "1/s", achieved})
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// print writes the human-readable report, the run record, and the result
// line last.
func (r *report) print(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "offloadbench %s seed=%d seconds=%g trace=%v\n", r.cfg.workload, r.cfg.seed, r.cfg.seconds, r.cfg.trace)
	b.WriteString(r.spans)
	for _, m := range append(append([]metric(nil), r.metrics...), r.extras...) {
		fmt.Fprintf(&b, "  %-36s %14.4f %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(&b, "  attempted=%d failed=%d correct=%v valid=%v\n", r.attempted, r.failed, r.correct, r.valid)
	record := map[string]any{
		"workload": r.cfg.workload,
		"seed":     r.cfg.seed,
		"seconds":  r.cfg.seconds,
		"trace":    r.cfg.trace,
		"env": map[string]any{
			"num_cpu":    runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go_version": runtime.Version(),
			"goos":       runtime.GOOS,
			"goarch":     runtime.GOARCH,
		},
		"params":  r.params,
		"setup_s": r.setupS,
		"valid":   r.valid,
		"extras":  metricMap(r.extras),
	}
	rec, err := json.Marshal(record)
	if err != nil {
		return err
	}
	fmt.Fprintf(&b, "record %s\n", rec)
	line, err := json.Marshal(map[string]any{
		"correct":   r.correct,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metricMap(r.metrics),
	})
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}

func metricMap(ms []metric) map[string]any {
	out := make(map[string]any, len(ms))
	for _, m := range ms {
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return out
}
