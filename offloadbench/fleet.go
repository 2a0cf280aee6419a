package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"mcsd/internal/core"
	"mcsd/internal/fleet"
	"mcsd/internal/metrics"
	"mcsd/internal/netsim"
	"mcsd/internal/nfs"
	"mcsd/internal/smartfam"
	"mcsd/internal/workloads"
)

// fleetIngestScan is the only workload for fleet scatter/gather: four SD
// nodes deployed like the single node, each reading through a disk-paced
// self-mount so the job stays disk-bound on two cores. One op stores a
// fresh corpus at R=2 over the host's single modelled 1 GbE link with
// fleet.Store.PutFile, then runs Coordinator.WordCountSealed over it, so
// replica writes and bulk NFS transfer share the wire layer with the
// invocation traffic.
type fleetIngestScan struct {
	ctx    context.Context
	cancel context.CancelFunc
	cfg    config
	tr     *tracer
	link   *hostLink
	sds    []*sdNode
	mounts []*nfs.Client
	store  *fleet.Store
	coord  *fleet.Coordinator
	pr     *probe

	corpora [][]byte
	refs    [][]byte // CanonicalWordCount of the single-node reference
	seq     int
}

// fleetReplication is the replication factor of the stored corpora.
const fleetReplication = 2

func setupFleet(parent context.Context, cfg config, dir string) (e env, err error) {
	ctx, cancel := context.WithCancel(parent)
	w := &fleetIngestScan{ctx: ctx, cancel: cancel, cfg: cfg, tr: &tracer{}, link: newHostLink()}
	defer func() {
		if err != nil {
			_ = w.close() // the boot error is the one to report
		}
	}()
	for i := 0; i < cfg.fleetCorpora; i++ {
		data := genText(cfg.fleetBytes, cfg.seed*7919+int64(i))
		ref := wordCountRef(data, 100)
		pairs := workloads.WordCountSeq(data)
		out := core.WordCountOutput{TotalWords: ref.total, UniqueWords: ref.unique, Top: ref.top}
		for word, n := range pairs {
			out.Pairs = append(out.Pairs, core.WordFreq{Word: word, Count: n})
		}
		sort.Slice(out.Pairs, func(a, b int) bool { return out.Pairs[a].Word < out.Pairs[b].Word })
		w.corpora = append(w.corpora, data)
		w.refs = append(w.refs, fleet.CanonicalWordCount(&out))
	}

	hostReg, hostNFS, fleetReg := metrics.NewRegistry(), metrics.NewRegistry(), metrics.NewRegistry()
	shares := map[string]smartfam.FS{}
	var nodes []fleet.Node
	for i := 0; i < cfg.fleetNodes; i++ {
		name := fmt.Sprintf("sd%d", i)
		ndir := filepath.Join(dir, name)
		if err := os.MkdirAll(ndir, 0o755); err != nil {
			return nil, err
		}
		sd, err := startSD(ctx, name, ndir, cfg.diskBps, netsim.ProfileGigabitEthernet.Latency, w.tr)
		if err != nil {
			return nil, err
		}
		w.sds = append(w.sds, sd)
		mount, err := w.link.mount(ctx, sd)
		if err != nil {
			return nil, err
		}
		mount.SetMetrics(hostNFS)
		w.mounts = append(w.mounts, mount)
		share, err := newTracedFS(mount, w.tr, true)
		if err != nil {
			return nil, err
		}
		session := smartfam.NewClient(share, smartfam.DefaultPollInterval)
		session.SetMetrics(hostReg)
		nodes = append(nodes, fleet.Node{Name: name, Session: session})
		// Replica writes go through the same host connection, outside
		// the smartFAM spans: fleet.put times them as one call.
		shares[name] = mount
	}
	w.store = fleet.NewStore(shares, fleetReplication, fleetReg)
	w.coord = fleet.NewCoordinator(nodes, fleet.Config{AttemptTimeout: time.Minute, Store: w.store, Metrics: fleetReg})
	w.pr = &probe{host: hostReg, hostNFS: hostNFS, fleet: fleetReg, nodes: w.sds, link: w.link}

	p := &phase{}
	w.op(ctx, p)
	if p.failures() > 0 {
		return nil, fmt.Errorf("fleet-ingest-scan: warm-up op failed")
	}
	return w, nil
}

func (w *fleetIngestScan) params() map[string]any {
	return map[string]any{
		"nodes":             w.cfg.fleetNodes,
		"replication":       fleetReplication,
		"corpus_bytes":      w.cfg.fleetBytes,
		"fragment_bytes":    w.cfg.fleetFragBytes,
		"corpora":           w.cfg.fleetCorpora,
		"disk_bytes_per_s":  w.cfg.diskBps,
		"callers":           1,
		"host_link_profile": netsim.ProfileGigabitEthernet.String(),
	}
}

func (w *fleetIngestScan) measure(ctx context.Context, d time.Duration, p *phase) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		w.op(ctx, p)
	}
	w.tr.curOp.Store(0)
}

// op stores the next corpus under a fresh name, counts it across the
// fleet, checks the merged result, and drops the objects again.
func (w *fleetIngestScan) op(ctx context.Context, p *phase) {
	w.seq++
	w.tr.curOp.Store(int64(w.seq))
	k := w.seq % len(w.corpora)
	data := w.corpora[k]
	base := fmt.Sprintf("c%06d", w.seq)
	defer w.drop(base)

	start := time.Now()
	t0 := w.tr.start()
	set, err := w.store.PutFile(ctx, base, data, w.cfg.fleetFragBytes)
	w.tr.stop(spanFleetPut, t0, int64(len(data)))
	put := time.Since(start)
	if err != nil {
		p.finishOp(classify(err), 0)
		logf("fleet-ingest-scan: put: %v", err)
		return
	}
	t1 := w.tr.start()
	q := time.Now()
	res, err := w.coord.WordCountSealed(ctx, fleet.SealedWordCountJob{Set: set})
	scan := time.Since(q)
	w.tr.stop(spanInvoke, t1, 0)
	if err != nil {
		p.finishOp(classify(err), 0)
		logf("fleet-ingest-scan: wordcount: %v", err)
		return
	}
	if !bytes.Equal(fleet.CanonicalWordCount(&res.Output), w.refs[k]) {
		p.finishOp(opWrong, 0)
		logf("fleet-ingest-scan: merged output differs from the single-node reference")
		return
	}
	p.finishOp(opOK, time.Since(start))
	p.query("wc", scan, int64(len(data)))
	p.words(int64(res.Output.FragmentKeys), int64(res.Output.UniqueWords))
	p.fleetJob(res.Stats, len(res.Fragments))
	p.mu.Lock()
	p.ingestBytes += int64(len(data))
	p.ingestTime += put
	p.mu.Unlock()
}

// drop removes an op's fragment objects from the nodes' disks: SD-side
// housekeeping that keeps the work directory small, off the op's clock.
func (w *fleetIngestScan) drop(base string) {
	for _, sd := range w.sds {
		matches, _ := filepath.Glob(filepath.Join(sd.dir, base+".*")) //nolint:errcheck // the pattern is well-formed
		for _, m := range matches {
			os.Remove(m)
		}
	}
}

func (w *fleetIngestScan) probe() *probe        { return w.pr }
func (w *fleetIngestScan) tracer() *tracer      { return w.tr }
func (w *fleetIngestScan) nodes() []*sdNode     { return w.sds }
func (w *fleetIngestScan) honesty(*phase) error { return nil }

func (w *fleetIngestScan) extras(p *phase) []metric {
	return []metric{
		{"ingest_mb_per_s", "MB/s", div(float64(p.ingestBytes)/1e6, p.ingestTime.Seconds())},
	}
}

func (w *fleetIngestScan) close() error {
	for _, m := range w.mounts {
		m.Close()
	}
	var errs []error
	for _, sd := range w.sds {
		errs = append(errs, sd.close())
	}
	w.cancel()
	return errors.Join(errs...)
}
