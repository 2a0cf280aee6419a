package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// tinyConfig shrinks every workload so one run takes about a second.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	cfg := defaultConfig()
	cfg.workload = workload
	cfg.seed = 7
	cfg.seconds = 1
	cfg.trace = trace
	cfg.setups = 2
	cfg.workDir = t.TempDir()

	cfg.scanBytes = 256 << 10
	cfg.scanFragments = 8
	cfg.scanKeys = 3

	cfg.smallFiles = 8
	cfg.rate = 100
	cfg.ladder = []float64{200}
	cfg.rungSeconds = 0.5

	cfg.fleetNodes = 2
	cfg.fleetBytes = 96 << 10
	cfg.fleetFragBytes = 16 << 10
	cfg.fleetCorpora = 2
	cfg.diskBps = 20e6
	return cfg
}

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	for _, w := range spec.Workloads {
		if _, ok := setups[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not run", w.Name)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestTinyRuns runs every workload untraced and traced at tiny sizes. Each
// run must emit exactly the declared metrics with their units, fail no
// op, and leave neither goroutines nor files behind.
func TestTinyRuns(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, workload := range []string{"offload-scan", "invoke-small", "fleet-ingest-scan"} {
		for _, trace := range []bool{false, true} {
			name := workload + map[bool]string{false: "/untraced", true: "/traced"}[trace]
			t.Run(name, func(t *testing.T) {
				before := runtime.NumGoroutine()
				cfg := tinyConfig(t, workload, trace)
				rep, err := runBench(t.Context(), cfg)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if rep.failed != 0 || !rep.correct || rep.attempted == 0 {
					t.Errorf("attempted %d, failed %d, correct %v", rep.attempted, rep.failed, rep.correct)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				got := map[string]string{}
				for _, m := range rep.metrics {
					got[m.name] = m.unit
				}
				for name, unit := range want {
					if got[name] != unit {
						t.Errorf("metric %s: unit %q, want %q", name, got[name], unit)
					}
				}
				if len(got) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(got), len(want))
				}
				for _, m := range rep.extras {
					if m.name == "fail_frac" && m.value != 0 {
						t.Errorf("fail_frac %v", m.value)
					}
				}
				checkNoWriters(t)
				checkQuiet(t, before, cfg.workDir)
			})
		}
	}
}

// writerFrames are the functions through which a node writes into its
// directory: the server's connection handler, which executes every share
// write, and the daemon's request workers, which write the journal.
var writerFrames = []string{
	"mcsd/internal/nfs.(*Server).serveConn",
	"mcsd/internal/smartfam.(*Daemon).Run",
	"mcsd/internal/smartfam.(*Daemon).serve",
	"mcsd/internal/smartfam.(*Daemon).submit",
}

// checkNoWriters checks, the moment the run has returned and without
// waiting, that no goroutine is left that could still write into a
// node's directory. runBench removed the directories in a single attempt
// after teardown; a writer still running then is the late-write defect
// that a retrying removal would hide.
func checkNoWriters(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	for _, g := range strings.Split(stacks, "\n\n") {
		for _, f := range writerFrames {
			if strings.Contains(g, f) {
				t.Errorf("goroutine in %s still running after teardown:\n%s", f, g)
			}
		}
	}
}

// checkQuiet waits for every goroutine the run started to end, then checks
// that the run removed its scratch directory.
func checkQuiet(t *testing.T, before int, workDir string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<20)
		t.Errorf("%d goroutines still running after teardown (%d before):\n%s",
			n, before, buf[:runtime.Stack(buf, true)])
	}
	entries, err := os.ReadDir(workDir)
	if err != nil {
		t.Fatalf("reading work dir: %v", err)
	}
	for _, e := range entries {
		t.Errorf("left behind in the work dir: %s", e.Name())
	}
}

// TestTailPercentile pins the tail rule: the highest candidate percentile
// with at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{1200, 99}, {100, 90}, {40, 75}, {12, 50}} {
		xs := make([]time.Duration, tc.n)
		for i := range xs {
			xs[i] = time.Duration(i) * time.Millisecond
		}
		if pct, _ := tail(xs); pct != tc.want {
			t.Errorf("%d samples: tail p%v, want p%v", tc.n, pct, tc.want)
		}
	}
}

// TestLateWindows pins the open-loop validity rule: windows in which the
// generator fell behind are left out of the figures, and a run with more
// than half of them is invalid and summarized over every window, so that
// it does not read fast.
func TestLateWindows(t *testing.T) {
	window := func(late, lat time.Duration) reqWindow {
		w := reqWindow{}
		for i := 0; i < windowRequests; i++ {
			w.late = append(w.late, late)
			w.lat = append(w.lat, lat)
			w.rates = append(w.rates, 1)
		}
		return w
	}
	onTime, late := time.Millisecond, sloLimit
	p := &phase{windows: []reqWindow{
		window(onTime, 8*time.Millisecond),
		window(late, 40*time.Millisecond),
		window(onTime, 10*time.Millisecond),
		window(onTime, 9*time.Millisecond),
	}}
	if !p.onSchedule() || onTimeWindows(p) != 3 {
		t.Fatalf("3 of 4 windows on time: valid %v, on time %d", p.onSchedule(), onTimeWindows(p))
	}
	if got := p.summarize().p50; got != 9*time.Millisecond {
		t.Errorf("p50 %v, want the median of the on-time windows, 9ms", got)
	}
	p.windows[2] = window(late, 40*time.Millisecond)
	if !p.onSchedule() {
		t.Errorf("2 of 4 windows on time: invalid")
	}
	p.windows[3] = window(late, 40*time.Millisecond)
	if p.onSchedule() {
		t.Errorf("1 of 4 windows on time: valid")
	}
	if got := p.summarize().p50; got != 40*time.Millisecond {
		t.Errorf("p50 %v, want the median of every window, 40ms", got)
	}
}
