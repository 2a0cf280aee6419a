package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"time"

	"mcsd/internal/core"
	"mcsd/internal/workloads"
)

// offloadScan is the paper's Fig. 8 offload on one SD node: a closed loop
// of one caller, each op one Runtime.WordCount followed by one
// Runtime.StringMatch over the same staged corpus. The corpus is many
// fragments long, so the partition driver and the module's data-store
// reads carry the work while smartFAM carries a few invocations per
// second and the wire only parameters and results.
type offloadScan struct {
	*singleSD
	corpusBytes    int64
	partitionBytes int64
	keys           []string
	wc             wcRef
	sm             map[string]int
}

const (
	scanCorpusFile = "data/corpus.txt"
	scanKeysFile   = "data/keys.txt"
)

func setupOffloadScan(ctx context.Context, cfg config, dir string) (env, error) {
	corpus := genText(cfg.scanBytes, cfg.seed)
	w := &offloadScan{
		corpusBytes:    int64(len(corpus)),
		partitionBytes: cfg.scanBytes / int64(cfg.scanFragments),
		keys:           matchKeys(cfg.scanKeys),
	}
	w.wc = wordCountRef(corpus, 100) // the module default TopN
	w.sm = map[string]int{}
	for _, m := range workloads.StringMatchSeq(corpus, w.keys) {
		w.sm[m.Key]++
	}
	if err := stage(dir, scanCorpusFile, corpus); err != nil {
		return nil, err
	}
	if err := stage(dir, scanKeysFile, []byte(strings.Join(w.keys, "\n")+"\n")); err != nil {
		return nil, err
	}
	var err error
	if w.singleSD, err = bootSingle(ctx, dir); err != nil {
		return nil, err
	}
	// Warm-up: one op, checked, before the clock starts.
	p := &phase{}
	w.op(ctx, p)
	if p.failures() > 0 {
		_ = w.close() // the warm-up failure is the one to report
		return nil, fmt.Errorf("offload-scan: warm-up op failed")
	}
	return w, nil
}

func (w *offloadScan) params() map[string]any {
	return map[string]any{
		"corpus_bytes":    w.corpusBytes,
		"partition_bytes": w.partitionBytes,
		"sm_keys":         len(w.keys),
		"callers":         1,
	}
}

func (w *offloadScan) measure(ctx context.Context, d time.Duration, p *phase) {
	deadline := time.Now().Add(d)
	for i := int64(1); time.Now().Before(deadline); i++ {
		w.tr.curOp.Store(i)
		w.op(ctx, p)
	}
	w.tr.curOp.Store(0)
}

// op runs one word count and one string match and books the op.
func (w *offloadScan) op(ctx context.Context, p *phase) {
	t0 := time.Now()
	if w.wordCount(ctx, p) && w.stringMatch(ctx, p) {
		p.finishOp(opOK, time.Since(t0))
	}
}

func (w *offloadScan) wordCount(ctx context.Context, p *phase) bool {
	t0 := w.tr.start()
	start := time.Now()
	out, _, err := w.rt.WordCount(ctx, core.WordCountParams{DataFile: scanCorpusFile, PartitionBytes: w.partitionBytes})
	lat := time.Since(start)
	w.tr.stop(spanInvoke, t0, 0)
	if err == nil {
		err = w.wc.check(out)
		if err != nil {
			p.finishOp(opWrong, 0)
			logf("offload-scan: %v", err)
			return false
		}
	}
	if err != nil {
		p.finishOp(classify(err), 0)
		logf("offload-scan: wordcount: %v", err)
		return false
	}
	p.query("wc", lat, w.corpusBytes)
	p.words(int64(out.FragmentKeys), int64(out.UniqueWords))
	return true
}

func (w *offloadScan) stringMatch(ctx context.Context, p *phase) bool {
	t0 := w.tr.start()
	start := time.Now()
	out, _, err := w.rt.StringMatch(ctx, core.StringMatchParams{
		DataFile: scanCorpusFile, KeysFile: scanKeysFile, PartitionBytes: w.partitionBytes})
	lat := time.Since(start)
	w.tr.stop(spanInvoke, t0, 0)
	if err != nil {
		p.finishOp(classify(err), 0)
		logf("offload-scan: stringmatch: %v", err)
		return false
	}
	var total int64
	for _, n := range w.sm {
		total += int64(n)
	}
	if !reflect.DeepEqual(out.HitsPerKey, w.sm) || out.TotalHits != total || !samplesMatch(out.Sample, w.keys) {
		p.finishOp(opWrong, 0)
		logf("offload-scan: stringmatch hits %v, want %v", out.HitsPerKey, w.sm)
		return false
	}
	p.query("sm", lat, w.corpusBytes)
	return true
}

// samplesMatch checks that every returned sample line holds some key.
func samplesMatch(lines []string, keys []string) bool {
	for _, l := range lines {
		hit := false
		for _, k := range keys {
			hit = hit || bytes.Contains([]byte(l), []byte(k))
		}
		if !hit {
			return false
		}
	}
	return true
}

func (w *offloadScan) extras(p *phase) []metric {
	pct, smTail := tail(p.smLat)
	return []metric{
		{"sm_p50_ms", "ms", ms(quantile(p.smLat, 0.5))},
		{"sm_tail_ms", "ms", ms(smTail)},
		{"sm_tail_pct", "pct", pct},
		{"sm_samples", "count", float64(len(p.smLat))},
	}
}

func (w *offloadScan) honesty(*phase) error { return nil }
