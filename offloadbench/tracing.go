package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"mcsd/internal/core"
	"mcsd/internal/smartfam"
)

// Span names recorded by the traced run. They live here, in the
// benchmark's own files, because the spans wrap calls into each layer's
// public API from the outside; the program's own span vocabulary
// (internal/trace) is untouched.
const (
	spanHostAppend   = "fam.host.append"
	spanHostRead     = "fam.host.read"
	spanHostStat     = "fam.host.stat"
	spanHostOther    = "fam.host.other" // create, list, remove, rename, statgen
	spanDaemonAppend = "fam.daemon.append"
	spanDaemonRead   = "fam.daemon.read"
	spanDaemonStat   = "fam.daemon.stat"
	spanDaemonOther  = "fam.daemon.other"
	spanModule       = "engine.module"
	spanStoreRead    = "store.read"
	spanInvoke       = "op.invoke" // one Runtime / Coordinator query call
	spanFleetPut     = "fleet.put"
)

// span is one recorded interval. Op is the benchmark operation the span
// belongs to when the benchmark can see it (closed loops run one op at a
// time); 0 marks a span that cannot be linked from outside, which is then
// aggregated per op.
type span struct {
	name  string
	op    int64
	start time.Time
	dur   time.Duration
	bytes int64
}

// tracer keeps spans in memory while it is on. Wrappers consult it on
// every call, so the traced and untraced runs take the same code path
// through the same wrapper types; only the recording differs.
type tracer struct {
	on    atomic.Bool
	curOp atomic.Int64

	mu    sync.Mutex
	spans []span
}

// start returns the span start time, or the zero time when tracing is off.
func (t *tracer) start() time.Time {
	if !t.on.Load() {
		return time.Time{}
	}
	return time.Now()
}

// stop records a span begun by start; a zero start (tracing off) records
// nothing.
func (t *tracer) stop(name string, t0 time.Time, bytes int64) {
	if t0.IsZero() {
		return
	}
	t.add(span{name: name, op: t.curOp.Load(), start: t0, dur: time.Since(t0), bytes: bytes})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the recorded spans and clears the buffer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// shareFS is the capability set every smartFAM share in the deployed
// topology has: the nfs client implements the push-notify and generation
// extensions on top of the plain FS.
type shareFS interface {
	smartfam.WatchFS
	smartfam.GenStat
}

// tracedFS wraps a smartFAM share and records a span per call. It forwards
// WatchFS and GenStat so tracing cannot flip the smartFAM client or daemon
// from push notify to the polling fallback.
type tracedFS struct {
	inner                    shareFS
	tr                       *tracer
	append, read, stat, misc string
}

var (
	_ smartfam.WatchFS = (*tracedFS)(nil)
	_ smartfam.GenStat = (*tracedFS)(nil)
)

// newTracedFS wraps fs, which must carry both optional capabilities; a
// share without them would run a different invocation path than mcsdd's.
func newTracedFS(fs smartfam.FS, tr *tracer, host bool) (*tracedFS, error) {
	inner, ok := fs.(shareFS)
	if !ok {
		return nil, fmt.Errorf("share %T lacks push notify or generation stat", fs)
	}
	t := &tracedFS{inner: inner, tr: tr,
		append: spanDaemonAppend, read: spanDaemonRead, stat: spanDaemonStat, misc: spanDaemonOther}
	if host {
		t.append, t.read, t.stat, t.misc = spanHostAppend, spanHostRead, spanHostStat, spanHostOther
	}
	return t, nil
}

func (f *tracedFS) Create(name string) error {
	defer f.tr.stop(f.misc, f.tr.start(), 0)
	return f.inner.Create(name)
}

// Append records module-log appends (requests on the host, responses on
// the daemon) under the append span; heartbeat and status rewrites go
// under the misc span.
func (f *tracedFS) Append(name string, data []byte) error {
	kind := f.misc
	if _, ok := smartfam.ModuleFromLog(name); ok {
		kind = f.append
	}
	defer f.tr.stop(kind, f.tr.start(), int64(len(data)))
	return f.inner.Append(name, data)
}

func (f *tracedFS) ReadAt(name string, p []byte, off int64) (n int, err error) {
	t0 := f.tr.start()
	n, err = f.inner.ReadAt(name, p, off)
	f.tr.stop(f.read, t0, int64(n))
	return n, err
}

func (f *tracedFS) Stat(name string) (int64, time.Time, error) {
	defer f.tr.stop(f.stat, f.tr.start(), 0)
	return f.inner.Stat(name)
}

func (f *tracedFS) List() ([]string, error) {
	defer f.tr.stop(f.misc, f.tr.start(), 0)
	return f.inner.List()
}

func (f *tracedFS) Remove(name string) error {
	defer f.tr.stop(f.misc, f.tr.start(), 0)
	return f.inner.Remove(name)
}

func (f *tracedFS) Rename(oldname, newname string) error {
	defer f.tr.stop(f.misc, f.tr.start(), 0)
	return f.inner.Rename(oldname, newname)
}

func (f *tracedFS) StatGen(name string) (int64, time.Time, uint64, error) {
	defer f.tr.stop(f.stat, f.tr.start(), 0)
	return f.inner.StatGen(name)
}

// Watch forwards the subscription untouched; events are counted by the
// program's own registries (fam.push_events, nfs.watch.*).
func (f *tracedFS) Watch(prefix string) (smartfam.WatchStream, error) {
	return f.inner.Watch(prefix)
}

// engineStats are the output fields the standard modules report about
// their own execution; the module wrapper reads them in the traced run.
type engineStats struct {
	ElapsedMs    int64 `json:"elapsed_ms"`
	ShuffleMs    int64 `json:"shuffle_ms"`
	MergeMs      int64 `json:"merge_ms"`
	Fragments    int   `json:"fragments"`
	FragmentKeys int   `json:"fragment_keys"`
	UniqueWords  int   `json:"unique_words"`
}

// moduleRun is one traced module execution on an SD node. The output is
// kept raw and decoded when the phase ends, off the measured path.
type moduleRun struct {
	dur time.Duration
	out []byte
}

// stats decodes the engine fields of the run's output; a payload without
// them leaves them zero.
func (r moduleRun) stats() engineStats {
	var st engineStats
	_ = json.Unmarshal(r.out, &st) //nolint:errcheck // every standard module answers in JSON
	return st
}

// tracedModule wraps a data-intensive module: it times each execution and
// keeps its output for the engine fields.
type tracedModule struct {
	smartfam.Module
	tr *tracer

	mu   sync.Mutex
	runs []moduleRun
}

func (m *tracedModule) Run(ctx context.Context, params []byte) ([]byte, error) {
	t0 := m.tr.start()
	out, err := m.Module.Run(ctx, params)
	if t0.IsZero() || err != nil {
		return out, err
	}
	run := moduleRun{dur: time.Since(t0), out: out}
	m.tr.add(span{name: spanModule, op: m.tr.curOp.Load(), start: t0, dur: run.dur})
	m.mu.Lock()
	m.runs = append(m.runs, run)
	m.mu.Unlock()
	return out, nil
}

func (m *tracedModule) take() []moduleRun {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.runs
	m.runs = nil
	return out
}

// tracedStore wraps a module's DataStore and records, per opened reader,
// the time spent inside Read and the bytes it returned (one span at
// Close, so a scan of many small reads costs one record). OpenAt and
// OpenRange go through core.OpenAt/core.OpenRange on the inner store,
// which is exactly what the modules do with a store lacking them, so the
// wrapper never changes which read path runs.
type tracedStore struct {
	inner core.DataStore
	tr    *tracer
}

var (
	_ core.RangeOpener     = (*tracedStore)(nil)
	_ core.RangeScanOpener = (*tracedStore)(nil)
)

func (s *tracedStore) Size(name string) (int64, error) { return s.inner.Size(name) }

func (s *tracedStore) Open(name string) (io.ReadCloser, error) {
	return s.wrap(s.inner.Open(name))
}

func (s *tracedStore) OpenAt(name string, off int64) (io.ReadCloser, error) {
	return s.wrap(core.OpenAt(s.inner, name, off))
}

func (s *tracedStore) OpenRange(name string, off, length int64) (io.ReadCloser, error) {
	return s.wrap(core.OpenRange(s.inner, name, off, length))
}

func (s *tracedStore) wrap(rc io.ReadCloser, err error) (io.ReadCloser, error) {
	if err != nil || !s.tr.on.Load() {
		return rc, err
	}
	return &tracedReader{ReadCloser: rc, tr: s.tr, op: s.tr.curOp.Load(), opened: time.Now()}, nil
}

type tracedReader struct {
	io.ReadCloser
	tr     *tracer
	op     int64
	opened time.Time
	busy   time.Duration
	bytes  int64
	once   sync.Once
}

func (r *tracedReader) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := r.ReadCloser.Read(p)
	r.busy += time.Since(t0)
	r.bytes += int64(n)
	return n, err
}

func (r *tracedReader) Close() error {
	r.once.Do(func() {
		r.tr.add(span{name: spanStoreRead, op: r.op, start: r.opened, dur: r.busy, bytes: r.bytes})
	})
	return r.ReadCloser.Close()
}
