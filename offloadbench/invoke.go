package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mcsd/internal/core"
)

// invokeSmall drives the control path: an open loop from one generator
// goroutine over the one host connection, each request a native word
// count of a few-KiB file, timed from the moment it was due. The engine
// is a small share of each request, so every smartFAM hop and the NFS
// round trips dominate; the input fits one fragment, so the partition
// driver's native path runs.
type invokeSmall struct {
	*singleSD
	files []smallFile
	order []int // request i reads files[order[i%len(order)]]
	next  atomic.Int64
	cfg   config
}

type smallFile struct {
	name  string
	bytes int64
	ref   wcRef
}

const (
	// sloLimit is the request latency limit at p99.
	sloLimit = 25 * time.Millisecond
	// maxLateShare is the share of sloLimit the generator's p99 lateness
	// in a window may reach before the window is void; a run whose
	// windows are mostly void is marked invalid. The p99, not the maximum,
	// so that one scheduling hiccup of the shared machine does not void a
	// window.
	maxLateShare = 0.5
	// windowRequests is the size of the windows whose latency percentiles
	// are reported as medians over the run: at 200 req/s one window is 5 s
	// and its p99 has ten samples beyond it. Medians over windows keep a
	// few seconds of machine-wide stall from moving the run's figure.
	windowRequests = 1000
	// smallTopN bounds each small request's frequency table.
	smallTopN = 10
	// smallMin and smallMax are the sizes of the smallest and the largest
	// small file in bytes; the others are spread evenly between them.
	smallMin = 2 << 10
	smallMax = 6 << 10
	// requestTimeout counts a request that has not finished as timed out.
	requestTimeout = 10 * time.Second
)

func setupInvokeSmall(ctx context.Context, cfg config, dir string) (env, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	w := &invokeSmall{cfg: cfg}
	for i := 0; i < cfg.smallFiles; i++ {
		// Sizes are spread evenly over the range and only the text and
		// the request order come from the seed, so every seed asks for the
		// same work (see gen.go).
		size := smallMin + i*(smallMax-smallMin)/max(cfg.smallFiles-1, 1)
		data := genText(int64(size), cfg.seed*1_000_003+int64(i))
		f := smallFile{name: fmt.Sprintf("data/small/s%03d.txt", i), bytes: int64(len(data)), ref: wordCountRef(data, smallTopN)}
		if err := stage(dir, f.name, data); err != nil {
			return nil, err
		}
		w.files = append(w.files, f)
	}
	w.order = rng.Perm(len(w.files))
	var err error
	if w.singleSD, err = bootSingle(ctx, dir); err != nil {
		return nil, err
	}
	// Warm-up: every file once, closed loop, checked.
	p := &phase{}
	for range w.files {
		w.request(ctx, time.Now(), -1, p)
	}
	if p.failures() > 0 {
		_ = w.close() // the warm-up failure is the one to report
		return nil, fmt.Errorf("invoke-small: %d warm-up requests failed", p.failures())
	}
	return w, nil
}

func (w *invokeSmall) params() map[string]any {
	return map[string]any{
		"files":            len(w.files),
		"file_bytes_min":   smallMin,
		"file_bytes_max":   smallMax,
		"rate_per_s":       w.cfg.rate,
		"ladder_per_s":     w.cfg.ladder,
		"rung_seconds":     w.cfg.rungSeconds,
		"slo_p99_ms":       ms(sloLimit),
		"max_late_ms":      ms(time.Duration(maxLateShare * float64(sloLimit))),
		"generators":       1,
		"host_connections": 1,
	}
}

func (w *invokeSmall) measure(ctx context.Context, d time.Duration, p *phase) {
	w.openLoop(ctx, w.cfg.rate, d, p)
}

// openLoop sends rate requests per second for d from this goroutine,
// each on its own goroutine so a slow reply never delays the schedule. It
// returns the requests still in flight when the schedule ended.
func (w *invokeSmall) openLoop(ctx context.Context, rate float64, d time.Duration, p *phase) int64 {
	n := int(rate * d.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	var wg sync.WaitGroup
	var inflight atomic.Int64
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !sleepUntil(ctx, due) {
			break
		}
		p.sent(i/windowRequests, time.Since(due), inflight.Add(1))
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer inflight.Add(-1)
			w.request(ctx, due, i/windowRequests, p)
		}()
	}
	backlog := inflight.Load()
	wg.Wait()
	return backlog
}

// request runs one small word count and books it against due, and into
// latency window win when win >= 0.
func (w *invokeSmall) request(ctx context.Context, due time.Time, win int, p *phase) {
	f := w.files[w.order[int(w.next.Add(1)-1)%len(w.order)]]
	rctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	t0 := w.tr.start()
	out, _, err := w.rt.WordCount(rctx, core.WordCountParams{DataFile: f.name, TopN: smallTopN})
	lat := time.Since(due)
	w.tr.stop(spanInvoke, t0, 0)
	o := classify(err)
	if o == opOK {
		if err = f.ref.check(out); err != nil {
			o = opWrong
		}
	}
	if err != nil {
		logf("invoke-small: %s: %v", f.name, err)
	}
	p.finishOp(o, lat)
	if o == opOK {
		p.query("wc", lat, f.bytes)
		p.words(int64(out.FragmentKeys), int64(out.UniqueWords))
		p.window(win, lat, f.bytes)
	}
	if o != opOK || lat > sloLimit {
		p.mu.Lock()
		p.sloMiss++
		p.mu.Unlock()
	}
}

// rung is one step of the rate ladder.
type rung struct {
	rate     float64
	achieved float64 // completed requests per second of schedule
	p99      time.Duration
	backlog  int64
	failures int
	pass     bool
	ph       *phase
}

// runRung measures one ladder rate. It passes when p99 meets the limit,
// nothing failed, and the backlog at the end of the schedule is below one
// latency limit's worth of requests.
func (w *invokeSmall) runRung(ctx context.Context, rate float64) rung {
	ph := &phase{}
	d := time.Duration(w.cfg.rungSeconds * float64(time.Second))
	start := time.Now()
	backlog := w.openLoop(ctx, rate, d, ph)
	r := rung{rate: rate, backlog: backlog, failures: ph.failures(), p99: quantile(ph.lat, 0.99), ph: ph}
	r.achieved = float64(len(ph.lat)) / time.Since(start).Seconds()
	r.pass = r.failures == 0 && r.p99 <= sloLimit && float64(backlog) <= rate*sloLimit.Seconds()
	return r
}

// ladder climbs 100·2^k req/s from the fixed rate (already measured as p)
// until a rung misses the limit, and returns every rung run. If the fixed
// rate itself misses, the rung below it is tried.
func (w *invokeSmall) ladder(ctx context.Context, p *phase) []rung {
	base := rung{rate: w.cfg.rate, p99: quantile(p.lat, 0.99), failures: p.failures(), ph: p}
	base.achieved = float64(len(p.lat)) / p.end.Sub(p.start).Seconds()
	base.pass = base.failures == 0 && base.p99 <= sloLimit
	rungs := []rung{base}
	if !base.pass {
		return append(rungs, w.runRung(ctx, w.cfg.rate/2))
	}
	for _, rate := range w.cfg.ladder {
		r := w.runRung(ctx, rate)
		rungs = append(rungs, r)
		if !r.pass {
			break
		}
	}
	return rungs
}

func (w *invokeSmall) honesty(p *phase) error {
	if p.delta("fam.push_events") == 0 {
		return fmt.Errorf("invoke-small: zero push events, so the polling fallback carried the load")
	}
	if d := p.delta("fam.degraded"); d > 0 {
		return fmt.Errorf("invoke-small: the host dropped to degraded polling %v times", d)
	}
	return nil
}

func (w *invokeSmall) extras(p *phase) []metric {
	pct, all := tail(p.lat)
	return []metric{
		{"slo_miss_frac", "ratio", float64(p.sloMiss) / float64(max(p.ops, 1))},
		{"tail_all_ms", "ms", ms(all)},
		{"tail_all_pct", "pct", pct},
		{"windows", "count", float64(len(p.windows))},
		{"windows_on_time", "count", float64(onTimeWindows(p))},
		{"late_ms_p99", "ms", ms(quantile(p.late, 0.99))},
		{"late_ms_max", "ms", ms(quantile(p.late, 1))},
		{"inflight_max", "count", float64(p.inflightMax)},
	}
}
