package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"mcsd/internal/fleet"
	"mcsd/internal/metrics"
	"mcsd/internal/nfs"
	"mcsd/internal/sched"
)

// outcome classifies one finished operation.
type outcome int

const (
	opOK outcome = iota
	opWrong
	opRefused
	opTimedOut
	opFailed
)

// classify maps an operation error to its outcome class.
func classify(err error) outcome {
	switch {
	case err == nil:
		return opOK
	case errors.Is(err, sched.ErrQueueFull):
		return opRefused
	case errors.Is(err, context.DeadlineExceeded):
		return opTimedOut
	}
	return opFailed
}

// phase collects one measured interval of one workload. Open-loop
// requests finish concurrently, so every update goes through mu.
type phase struct {
	mu sync.Mutex

	traced     bool
	start, end time.Time
	proc0      procSnap
	proc1      procSnap
	reg0, reg1 map[string]float64

	ops     int // attempted operations
	wrong   int
	refused int
	timeout int
	failed  int // other errors
	sloMiss int // failed, refused, or slower than the latency limit (open loop)

	lat   []time.Duration // per-op latency of successful ops
	wcLat []time.Duration // per-call latency of word-count queries
	smLat []time.Duration // per-call latency of string-match queries

	queries     int // Runtime / Coordinator query calls
	scanBytes   int64
	scanTime    time.Duration
	ingestBytes int64
	ingestTime  time.Duration
	fragKeys    int64
	uniqueWords int64

	windows     []reqWindow     // open loop: requests by schedule window
	late        []time.Duration // open loop: generator lateness per request
	inflightMax int64

	fleetJobs      int
	fleetStats     fleet.Stats // summed over jobs
	fleetImbalance float64     // summed max/min fragments per node
	fleetFragments int

	spans   []span
	modRuns []moduleRun
}

func (p *phase) failures() int { return p.wrong + p.refused + p.timeout + p.failed }

// finishOp books one operation's outcome; lat counts only when ok.
func (p *phase) finishOp(o outcome, lat time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ops++
	switch o {
	case opOK:
		p.lat = append(p.lat, lat)
	case opWrong:
		p.wrong++
	case opRefused:
		p.refused++
	case opTimedOut:
		p.timeout++
	default:
		p.failed++
	}
}

// query books one successful query call of the given kind.
func (p *phase) query(kind string, lat time.Duration, bytes int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.queries++
	p.scanBytes += bytes
	p.scanTime += lat
	switch kind {
	case "wc":
		p.wcLat = append(p.wcLat, lat)
	case "sm":
		p.smLat = append(p.smLat, lat)
	}
}

// reqWindow is one window of consecutive open-loop requests.
type reqWindow struct {
	late  []time.Duration // generator lateness of every request sent
	lat   []time.Duration // latency of every successful request
	rates []float64       // input MB per second of latency, per successful request
}

// win returns window i, growing the list as needed; p.mu must be held.
func (p *phase) win(i int) *reqWindow {
	for len(p.windows) <= i {
		p.windows = append(p.windows, reqWindow{})
	}
	return &p.windows[i]
}

// sent books the generator's lateness for a request of window win.
func (p *phase) sent(win int, late time.Duration, inflight int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.late = append(p.late, late)
	p.inflightMax = max(p.inflightMax, inflight)
	w := p.win(win)
	w.late = append(w.late, late)
}

// window books a successful open-loop request into its window.
func (p *phase) window(win int, lat time.Duration, bytes int64) {
	if win < 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	w := p.win(win)
	w.lat = append(w.lat, lat)
	w.rates = append(w.rates, div(float64(bytes)/1e6, lat.Seconds()))
}

// full reports whether the generator sent a whole window's requests; the
// last window of a phase is usually partial.
func (w *reqWindow) full() bool { return len(w.late) >= windowRequests*9/10 }

// onTime reports whether the generator kept its schedule in the window: a
// generator that falls behind sends less load than scheduled, which would
// read as a fast system.
func (w *reqWindow) onTime() bool {
	return float64(quantile(w.late, 0.99)) <= maxLateShare*float64(sloLimit)
}

// onSchedule reports whether the generator kept its schedule in at least
// half of the phase's full windows. A phase too short for a full window is
// judged as a whole.
func (p *phase) onSchedule() bool {
	full := 0
	for _, win := range p.windows {
		if win.full() {
			full++
		}
	}
	if full == 0 {
		return (&reqWindow{late: p.late}).onTime()
	}
	return 2*onTimeWindows(p) >= full
}

// onTimeWindows counts the full windows the generator kept its schedule in.
func onTimeWindows(p *phase) int {
	n := 0
	for _, win := range p.windows {
		if win.full() && win.onTime() {
			n++
		}
	}
	return n
}

// summary is the latency and scan-rate figures of a phase.
type summary struct {
	p50, tail time.Duration
	pct       float64 // the tail's percentile
	samples   int     // samples each latency figure is taken over
	scanMBps  float64
}

// summarize computes the phase's figures. With request windows (the open
// loop) each figure is the median of the per-window figures over the full
// windows in which the generator kept its schedule, and the scan rate is
// that of the median request; otherwise each figure is taken over the
// whole phase. A phase off schedule is summarized over all its full
// windows, the late ones too, so that it cannot read fast.
func (p *phase) summarize() summary {
	var p50s, tails []time.Duration
	var rates []float64
	var s summary
	onTimeOnly := p.onSchedule()
	for _, w := range p.windows {
		if !w.full() || (onTimeOnly && !w.onTime()) {
			continue
		}
		var t time.Duration
		s.pct, t = tail(w.lat)
		p50s, tails = append(p50s, quantile(w.lat, 0.5)), append(tails, t)
		rates = append(rates, median(w.rates))
		s.samples = len(w.lat)
	}
	if len(tails) == 0 {
		s.pct, s.tail = tail(p.lat)
		s.p50, s.samples = quantile(p.lat, 0.5), len(p.lat)
		s.scanMBps = div(float64(p.scanBytes)/1e6, p.scanTime.Seconds())
		return s
	}
	s.p50, s.tail, s.scanMBps = quantile(p50s, 0.5), quantile(tails, 0.5), median(rates)
	return s
}

func (p *phase) words(fragKeys, unique int64) {
	p.mu.Lock()
	p.fragKeys += fragKeys
	p.uniqueWords += unique
	p.mu.Unlock()
}

// fleetJob books one coordinator job's dispatch accounting.
func (p *phase) fleetJob(st fleet.Stats, fragments int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fleetJobs++
	p.fleetFragments += fragments
	p.fleetStats.Dispatches += st.Dispatches
	p.fleetStats.QueueSteals += st.QueueSteals
	p.fleetStats.Speculations += st.Speculations
	p.fleetStats.DupResults += st.DupResults
	lo, hi := math.MaxInt, 0
	for _, n := range st.PerNode {
		lo, hi = min(lo, n), max(hi, n)
	}
	if hi > 0 {
		p.fleetImbalance += float64(hi) / float64(max(lo, 1))
	}
}

// probe reads every program registry the benchmark reports from, by the
// registries' own name constants. Readings are summed over nodes and
// turned into per-phase deltas by the caller.
type probe struct {
	host    *metrics.Registry // smartFAM clients (the Runtime's registry)
	hostNFS *metrics.Registry // host nfs clients
	fleet   *metrics.Registry // coordinator and store; nil off the fleet
	nodes   []*sdNode
	link    *hostLink
}

// nfsOps are the server's per-op counters summed into nfs.ops.
var nfsOps = []string{
	nfs.OpCreate, nfs.OpAppend, nfs.OpReadAt, nfs.OpStat, nfs.OpList, nfs.OpRemove,
	nfs.OpRename, nfs.OpWrite, nfs.OpPing, nfs.OpCommit, nfs.OpSum, nfs.OpWatch,
}

func (pr *probe) read() map[string]float64 {
	m := map[string]float64{}
	c := func(r *metrics.Registry, key, name string) {
		m[key] += float64(r.Counter(name).Value()) //mcsdlint:allow metrickey -- every caller below passes a metrics constant
	}
	t := func(r *metrics.Registry, key, name string) {
		m[key] += ms(r.Timer(name).Total()) //mcsdlint:allow metrickey -- every caller below passes a metrics constant
	}
	c(pr.host, "fam.push_events", metrics.FamPushEvents)
	c(pr.host, "fam.degraded", metrics.FamDegraded)
	c(pr.hostNFS, "nfs.client.pipeline_stalls", metrics.NFSClientPipelineStalls)
	c(pr.hostNFS, "nfs.client.replays", metrics.NFSClientReplays)
	for _, n := range pr.nodes {
		srv := n.srv.Metrics()
		for _, op := range nfsOps {
			m["nfs.ops"] += float64(srv.Counter(metrics.NFSOpPrefix + op).Value())
		}
		m["nfs.append_ops"] += float64(srv.Counter(metrics.NFSOpPrefix + nfs.OpAppend).Value())
		m["nfs.read_ops"] += float64(srv.Counter(metrics.NFSOpPrefix + nfs.OpReadAt).Value())
		m["nfs.stat_ops"] += float64(srv.Counter(metrics.NFSOpPrefix + nfs.OpStat).Value())
		m["nfs.commit_ops"] += float64(srv.Counter(metrics.NFSOpPrefix + nfs.OpCommit).Value())
		c(srv, "nfs.server_bytes_read", metrics.NFSBytesRead)
		c(srv, "nfs.server_bytes_written", metrics.NFSBytesWritten)
		c(srv, "nfs.watch.notifies", metrics.NFSWatchNotifies)
		c(srv, "nfs.watch.dropped", metrics.NFSWatchDropped)

		d := n.daemon.Metrics()
		c(d, "fam.daemon.requests", metrics.DaemonRequests)
		c(d, "fam.daemon.deduped", metrics.DaemonDeduped)
		c(d, "fam.daemon.resp_flushes", metrics.FamRespFlushes)
		c(d, "fam.daemon.resp_records", metrics.FamRespRecords)
		t(d, "fam.daemon.invoke_ms", metrics.DaemonInvoke)

		s := n.sched.Metrics()
		t(s, "sched.wait_ms", metrics.SchedWait)
		t(s, "sched.run_ms", metrics.SchedRun)
		c(s, "sched.admission_deferrals", metrics.SchedAdmissionDeferrals)
		c(s, "sched.queue_full_rejects", metrics.SchedQueueFullRejects)
	}
	if pr.fleet != nil {
		t(pr.fleet, "fleet.execute_ms", metrics.FleetExecute)
		t(pr.fleet, "fleet.merge_ms", metrics.FleetMerge)
		c(pr.fleet, "fleet.replica_writes", metrics.FleetReplicaWrites)
		c(pr.fleet, "fleet.corrupt_replicas", metrics.FleetCorruptReplicas)
	}
	m["link.bytes_up"] = float64(pr.link.count.up.Load())
	m["link.bytes_down"] = float64(pr.link.count.down.Load())
	return m
}

// delta returns the change of one reading over the phase.
func (p *phase) delta(key string) float64 { return p.reg1[key] - p.reg0[key] }

// begin and finish bracket a measured phase.
func (p *phase) begin(pr *probe) {
	p.reg0 = pr.read()
	p.proc0 = readProc()
	p.start = time.Now()
}

func (p *phase) finish(pr *probe, tr *tracer, nodes []*sdNode) {
	p.end = time.Now()
	p.proc1 = readProc()
	p.reg1 = pr.read()
	if p.traced {
		p.spans = tr.take()
		for _, n := range nodes {
			p.modRuns = append(p.modRuns, n.takeModuleRuns()...)
		}
	}
}

// nfsOpsPerOp is the server op count per benchmark op, the figure the
// path-honesty check compares between the untraced and traced phases.
func (p *phase) nfsOpsPerOp() float64 {
	if p.ops == 0 {
		return 0
	}
	return p.delta("nfs.ops") / float64(p.ops)
}

// checkSamePath fails when two phases of one run took visibly different
// invocation paths: the server ops per benchmark op must agree within tol.
func checkSamePath(untraced, traced *phase, tol float64) error {
	a, b := untraced.nfsOpsPerOp(), traced.nfsOpsPerOp()
	if a == 0 || math.Abs(b-a)/a > tol {
		return fmt.Errorf("path honesty: %.2f nfs ops/op untraced vs %.2f traced (tolerance %.0f%%)", a, b, tol*100)
	}
	return nil
}

// layerMetrics derives the per-layer metrics of a traced phase. Values
// are per benchmark op (fleet.* per coordinator job), except the counts of
// failure-type events — degradations, deferrals, rejects, replays, drops,
// corrupt replicas, dedups — which are per phase.
func layerMetrics(p *phase) []metric {
	n := float64(max(p.ops, 1))
	sum := map[string]time.Duration{}
	calls := map[string]float64{}
	bytes := map[string]float64{}
	for _, s := range p.spans {
		sum[s.name] += s.dur
		calls[s.name]++
		bytes[s.name] += float64(s.bytes)
	}
	var engElapsed, engShuffle, engMerge, frags float64
	var modTime time.Duration
	for _, r := range p.modRuns {
		st := r.stats()
		modTime += r.dur
		engElapsed += float64(st.ElapsedMs)
		engShuffle += float64(st.ShuffleMs)
		engMerge += float64(st.MergeMs)
		frags += float64(st.Fragments)
	}
	perOp := func(d time.Duration) float64 { return ms(d) / n }
	wall := p.end.Sub(p.start).Seconds()
	bw := linkBandwidth()
	jobs := float64(max(p.fleetJobs, 1))
	fs := p.fleetStats
	daemonInvoke := p.delta("fam.daemon.invoke_ms")
	if daemonInvoke == 0 {
		// With the scheduler on, modules run under its executor and the
		// daemon's own invoke timer stays idle; the scheduler's run timer
		// covers the same interval.
		daemonInvoke = p.delta("sched.run_ms")
	}
	return []metric{
		{"engine.module_ms", "ms", ms(modTime) / n},
		{"engine.elapsed_ms", "ms", engElapsed / n},
		{"engine.shuffle_ms", "ms", engShuffle / n},
		{"engine.merge_ms", "ms", engMerge / n},
		{"proc.cpu_ms_per_op", "ms", ms(p.proc1.cpu-p.proc0.cpu) / n},
		{"proc.allocs_per_op", "count", float64(p.proc1.allocs-p.proc0.allocs) / n},

		{"partition.fragments_per_job", "count", div(frags, float64(p.queries))},
		{"partition.key_dedup_ratio", "ratio", div(float64(p.fragKeys), float64(p.uniqueWords))},

		{"store.read_ms", "ms", perOp(sum[spanStoreRead])},
		{"store.bytes_per_op", "B", bytes[spanStoreRead] / n},
		{"store.mb_per_s", "MB/s", div(bytes[spanStoreRead]/1e6, sum[spanStoreRead].Seconds())},

		{"fam.host.append_ms", "ms", perOp(sum[spanHostAppend])},
		{"fam.host.read_ms", "ms", perOp(sum[spanHostRead])},
		{"fam.host.wait_ms", "ms", perOp(hostWait(p.spans))},
		{"fam.host.append_calls", "count", calls[spanHostAppend] / n},
		{"fam.host.read_calls", "count", calls[spanHostRead] / n},
		{"fam.host.stat_calls", "count", calls[spanHostStat] / n},
		{"fam.push_events", "count", p.delta("fam.push_events") / n},
		{"fam.records_per_flush", "ratio", div(p.delta("fam.daemon.requests"), calls[spanHostAppend])},
		{"fam.degraded", "count", p.delta("fam.degraded")},

		{"fam.daemon.read_ms", "ms", perOp(sum[spanDaemonRead])},
		{"fam.daemon.append_ms", "ms", perOp(sum[spanDaemonAppend])},
		{"fam.daemon.invoke_ms", "ms", daemonInvoke / n},
		{"fam.daemon.overhead_ms", "ms", (daemonInvoke - ms(modTime)) / n},
		{"fam.daemon.resp_records_per_flush", "ratio", div(p.delta("fam.daemon.requests"), calls[spanDaemonAppend])},
		{"fam.daemon.deduped", "count", p.delta("fam.daemon.deduped")},

		{"sched.wait_ms", "ms", p.delta("sched.wait_ms") / n},
		{"sched.run_ms", "ms", p.delta("sched.run_ms") / n},
		{"sched.admission_deferrals", "count", p.delta("sched.admission_deferrals")},
		{"sched.queue_full_rejects", "count", p.delta("sched.queue_full_rejects")},

		{"nfs.ops", "count", p.delta("nfs.ops") / n},
		{"nfs.append_ops", "count", p.delta("nfs.append_ops") / n},
		{"nfs.read_ops", "count", p.delta("nfs.read_ops") / n},
		{"nfs.stat_ops", "count", p.delta("nfs.stat_ops") / n},
		{"nfs.commit_ops", "count", p.delta("nfs.commit_ops") / n},
		{"nfs.server_bytes_read", "B", p.delta("nfs.server_bytes_read") / n},
		{"nfs.server_bytes_written", "B", p.delta("nfs.server_bytes_written") / n},
		{"nfs.client.pipeline_stalls", "count", p.delta("nfs.client.pipeline_stalls") / n},
		{"nfs.client.replays", "count", p.delta("nfs.client.replays")},
		{"nfs.watch.notifies", "count", p.delta("nfs.watch.notifies") / n},
		{"nfs.watch.dropped", "count", p.delta("nfs.watch.dropped")},

		{"link.bytes_up", "B", p.delta("link.bytes_up") / n},
		{"link.bytes_down", "B", p.delta("link.bytes_down") / n},
		{"link.busy_frac", "ratio", div(math.Max(p.delta("link.bytes_up"), p.delta("link.bytes_down")), bw*wall)},

		{"fleet.put_ms", "ms", ms(sum[spanFleetPut]) / jobs},
		{"fleet.execute_ms", "ms", p.delta("fleet.execute_ms") / jobs},
		{"fleet.merge_ms", "ms", p.delta("fleet.merge_ms") / jobs},
		{"fleet.dispatches_per_job", "count", float64(fs.Dispatches) / jobs},
		{"fleet.useful_frac", "ratio", div(float64(p.fleetFragments), float64(fs.Dispatches))},
		{"fleet.steals_per_job", "count", float64(fs.QueueSteals) / jobs},
		{"fleet.speculations_per_job", "count", float64(fs.Speculations) / jobs},
		{"fleet.dup_results_per_job", "count", float64(fs.DupResults) / jobs},
		{"fleet.node_imbalance", "ratio", p.fleetImbalance / jobs},
		{"fleet.replica_writes_per_job", "count", p.delta("fleet.replica_writes") / jobs},
		{"fleet.corrupt_replicas", "count", p.delta("fleet.corrupt_replicas")},

		{"loadgen.late_ms_max", "ms", ms(quantile(p.late, 1))},
		{"loadgen.inflight_max", "count", float64(p.inflightMax)},
	}
}

// hostWait is the time some query call was in flight on the host while
// no host share call was: the smartFAM client's self time (waiting for
// notifications, routing, decoding). It is taken over the union of
// intervals, so concurrent calls are not double counted.
func hostWait(spans []span) time.Duration {
	var invoke, share []interval
	for _, s := range spans {
		iv := interval{s.start, s.start.Add(s.dur)}
		switch s.name {
		case spanInvoke:
			invoke = append(invoke, iv)
		case spanHostAppend, spanHostRead, spanHostStat, spanHostOther:
			share = append(share, iv)
		}
	}
	in := union(invoke)
	return length(in) - length(intersect(in, union(share)))
}

type interval struct{ lo, hi time.Time }

// union merges intervals into a sorted, disjoint list.
func union(ivs []interval) []interval {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var out []interval
	for _, iv := range ivs {
		if n := len(out); n > 0 && !iv.lo.After(out[n-1].hi) {
			if iv.hi.After(out[n-1].hi) {
				out[n-1].hi = iv.hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// intersect intersects two sorted, disjoint lists.
func intersect(a, b []interval) []interval {
	var out []interval
	for i, j := 0, 0; i < len(a) && j < len(b); {
		lo, hi := a[i].lo, a[i].hi
		if b[j].lo.After(lo) {
			lo = b[j].lo
		}
		if b[j].hi.Before(hi) {
			hi = b[j].hi
		}
		if lo.Before(hi) {
			out = append(out, interval{lo, hi})
		}
		if a[i].hi.Before(b[j].hi) {
			i++
		} else {
			j++
		}
	}
	return out
}

func length(ivs []interval) time.Duration {
	var d time.Duration
	for _, iv := range ivs {
		d += iv.hi.Sub(iv.lo)
	}
	return d
}

// metric is one named, unit-tagged figure of the result line.
type metric struct {
	name  string
	unit  string
	value float64
}

// spanSummary renders per-span-name totals for the human-readable log.
func spanSummary(spans []span) string {
	type agg struct {
		n   int
		dur time.Duration
	}
	by := map[string]*agg{}
	var names []string
	for _, s := range spans {
		a := by[s.name]
		if a == nil {
			a = &agg{}
			by[s.name] = a
			names = append(names, s.name)
		}
		a.n++
		a.dur += s.dur
	}
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "  span %-18s n=%-6d total=%.1f ms\n", name, by[name].n, ms(by[name].dur))
	}
	b.WriteString(medianOp(spans, names))
	return b.String()
}

// medianOp renders the spans of one op, linked by op number: the op whose
// query time is the median of the phase. It shows where a typical op's
// time went. Spans that cannot be linked (op 0) are left out; the open
// loop has none that can.
func medianOp(spans []span, names []string) string {
	byOp := map[int64]map[string]time.Duration{}
	var ops []int64
	for _, s := range spans {
		if s.op == 0 {
			continue
		}
		if byOp[s.op] == nil {
			byOp[s.op] = map[string]time.Duration{}
			ops = append(ops, s.op)
		}
		byOp[s.op][s.name] += s.dur
	}
	if len(ops) == 0 {
		return ""
	}
	sort.Slice(ops, func(i, j int) bool { return byOp[ops[i]][spanInvoke] < byOp[ops[j]][spanInvoke] })
	op := ops[len(ops)/2]
	var b strings.Builder
	fmt.Fprintf(&b, "  median op #%d:", op)
	for _, name := range names {
		if d, ok := byOp[op][name]; ok {
			fmt.Fprintf(&b, " %s=%.1fms", name, ms(d))
		}
	}
	b.WriteByte('\n')
	return b.String()
}
