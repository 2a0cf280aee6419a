package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"mcsd/internal/core"
	"mcsd/internal/metrics"
	"mcsd/internal/netsim"
	"mcsd/internal/nfs"
	"mcsd/internal/workloads"
)

// singleSD is the one-node topology of offload-scan and invoke-small: one
// SD node and, on the host, core.Runtime with its defaults over one host
// connection through the modelled 1 GbE link.
type singleSD struct {
	ctx    context.Context
	cancel context.CancelFunc
	dir    string
	tr     *tracer
	node   *sdNode
	link   *hostLink
	mount  *nfs.Client
	rt     *core.Runtime
	pr     *probe
}

// bootSingle starts the node over dir (already staged) and attaches it to
// a fresh host runtime. The node lives until close or until parent ends.
func bootSingle(parent context.Context, dir string) (e *singleSD, err error) {
	ctx, cancel := context.WithCancel(parent)
	e = &singleSD{ctx: ctx, cancel: cancel, dir: dir, tr: &tracer{}, link: newHostLink()}
	defer func() {
		if err != nil {
			_ = e.close() // the boot error is the one to report
			e = nil
		}
	}()
	if e.node, err = startSD(ctx, "sd0", dir, 0, netsim.ProfileGigabitEthernet.Latency, e.tr); err != nil {
		return e, err
	}
	if e.mount, err = e.link.mount(ctx, e.node); err != nil {
		return e, err
	}
	hostNFS := metrics.NewRegistry()
	e.mount.SetMetrics(hostNFS)
	share, err := newTracedFS(e.mount, e.tr, true)
	if err != nil {
		return e, err
	}
	e.rt = core.New()
	e.rt.AttachSD(e.node.name, share)
	e.pr = &probe{host: e.rt.Metrics(), hostNFS: hostNFS, nodes: []*sdNode{e.node}, link: e.link}
	return e, nil
}

func (e *singleSD) close() error {
	if e.mount != nil {
		e.mount.Close()
	}
	var err error
	if e.node != nil {
		err = e.node.close()
	}
	e.cancel()
	return err
}

func (e *singleSD) nodes() []*sdNode { return []*sdNode{e.node} }
func (e *singleSD) probe() *probe    { return e.pr }
func (e *singleSD) tracer() *tracer  { return e.tr }

// stage writes a data file into the node's export before it boots, as an
// operator would copy it onto the SD node's disk.
func stage(dir, name string, data []byte) error {
	p := filepath.Join(dir, filepath.FromSlash(name))
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	return os.WriteFile(p, data, 0o644)
}

// wcRef is the reference a word-count output is checked against.
type wcRef struct {
	total  int64
	unique int
	top    []core.WordFreq
}

// wordCountRef computes the reference with the sequential baseline.
func wordCountRef(data []byte, topN int) wcRef {
	counts := workloads.WordCountSeq(data)
	ref := wcRef{unique: len(counts)}
	for _, c := range counts {
		ref.total += int64(c)
	}
	for _, p := range workloads.TopWords(counts, topN) {
		ref.top = append(ref.top, core.WordFreq{Word: p.Key, Count: p.Value})
	}
	return ref
}

// check compares an output with the reference.
func (r wcRef) check(out *core.WordCountOutput) error {
	if out.TotalWords != r.total || out.UniqueWords != r.unique {
		return fmt.Errorf("wordcount: %d words / %d unique, want %d / %d",
			out.TotalWords, out.UniqueWords, r.total, r.unique)
	}
	if !reflect.DeepEqual(out.Top, r.top) {
		return fmt.Errorf("wordcount: top table differs from the sequential reference")
	}
	return nil
}
