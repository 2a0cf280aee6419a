package main

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mcsd/internal/core"
	"mcsd/internal/netsim"
	"mcsd/internal/nfs"
	"mcsd/internal/sched"
	"mcsd/internal/smartfam"
)

// sdWorkers is mcsdd's default -workers: the duo-core SD node.
const sdWorkers = 2

// dialTimeout bounds every in-process TCP dial.
const dialTimeout = 5 * time.Second

// sdNode is one SD node deployed as mcsdd deploys it: a file-service
// export of its directory, a smartFAM daemon whose share I/O loops back
// through that export (push notify on), the crash journal, and the job
// scheduler at its default queue depth, with 2 workers and response
// batching left at its default (off). Its modules read through a traced
// DataStore: the local directory, or a disk-paced self-mount when
// diskBps > 0.
type sdNode struct {
	name    string
	dir     string
	srv     *nfs.Server
	lnHost  net.Listener   // host-facing: server writes pay the link's one-way delay
	lnLocal net.Listener   // SD-internal: the daemon loopback and the disk mount
	conns   sync.WaitGroup // accepted connections whose handler has not ended
	loop    *nfs.Client
	disk    *nfs.Client
	daemon  *smartfam.Daemon
	sched   *sched.Scheduler
	modules []*tracedModule
	tr      *tracer

	ctx        context.Context
	cancel     context.CancelFunc
	serving    sync.WaitGroup // the server's accept loops
	daemonDone chan struct{}  // closed when the daemon's Run has returned
}

// startSD boots a node over dir, which must exist and already hold the
// node's staged data files.
func startSD(parent context.Context, name, dir string, diskBps float64, oneWay time.Duration, tr *tracer) (n *sdNode, err error) {
	ctx, cancel := context.WithCancel(parent)
	n = &sdNode{name: name, dir: dir, srv: nfs.NewServer(dir), tr: tr, ctx: ctx, cancel: cancel,
		daemonDone: make(chan struct{})}
	daemonStarted := false
	defer func() {
		if err != nil {
			if !daemonStarted {
				close(n.daemonDone)
			}
			_ = n.close() // the boot error is the one to report
			n = nil
		}
	}()
	if n.lnLocal, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return n, err
	}
	n.serve(n.lnLocal)
	if n.lnHost, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return n, err
	}
	n.serve(netsim.DelayListener(ctx, n.lnHost, oneWay))

	if n.loop, err = nfs.Dial(n.lnLocal.Addr().String(), dialTimeout); err != nil {
		return n, fmt.Errorf("%s: daemon loopback: %w", name, err)
	}
	share, err := newTracedFS(n.loop, tr, false)
	if err != nil {
		return n, err
	}
	var store core.DataStore = core.DirStore(dir)
	if diskBps > 0 {
		// The node's "local disk": its own export through a private
		// bandwidth-limited link, so each node's scan paces on its own.
		link := netsim.NewLink(netsim.Profile{Name: "disk", BandwidthBps: diskBps})
		if n.disk, err = nfs.DialThrottled(ctx, n.lnLocal.Addr().String(), dialTimeout, link); err != nil {
			return n, fmt.Errorf("%s: disk mount: %w", name, err)
		}
		store = core.RemoteDataStore(n.disk)
	}
	store = &tracedStore{inner: store, tr: tr}

	reg := smartfam.NewRegistry(share)
	modCfg := core.ModuleConfig{Store: store, Workers: sdWorkers}
	for _, m := range core.StandardModules(modCfg) {
		tm := &tracedModule{Module: m, tr: tr}
		n.modules = append(n.modules, tm)
		if err := reg.Register(tm); err != nil {
			return n, fmt.Errorf("%s: registering %s: %w", name, m.Name(), err)
		}
	}
	n.sched = sched.New(sched.Config{MaxQueueDepth: sched.DefaultMaxQueueDepth, Workers: sdWorkers},
		func(ctx context.Context, job *sched.Job) ([]byte, error) {
			m, err := reg.Lookup(job.Module)
			if err != nil {
				return nil, err
			}
			return m.Run(ctx, job.Payload)
		})
	n.daemon = smartfam.NewDaemon(share, reg,
		smartfam.WithPollInterval(smartfam.DefaultPollInterval),
		smartfam.WithWorkers(sdWorkers),
		smartfam.WithJournal(filepath.Join(dir, ".journal")),
		smartfam.WithScheduler(n.sched),
		smartfam.WithFootprintEstimator(core.NewFootprintEstimator(store, nil)))
	daemonStarted = true
	go func() {
		defer close(n.daemonDone)
		_ = n.daemon.Run(ctx) //nolint:errcheck // ends with ctx; close waits for it
	}()
	return n, nil
}

func (n *sdNode) serve(ln net.Listener) {
	n.serving.Add(1)
	go func() {
		defer n.serving.Done()
		_ = n.srv.Serve(&trackedListener{Listener: ln, conns: &n.conns}) //nolint:errcheck // ends when close shuts the listener
	}()
}

// drainTimeout bounds how long close waits for the server's connection
// handlers to finish the requests they already read.
const drainTimeout = 5 * time.Second

// close stops the node and returns once nothing can write into its
// directory any more; the directory is left to the caller. Every host
// mount of the node must be closed first.
//
// Only two kinds of goroutine write there: the server's connection
// handlers (every share write, the daemon's own included, is a request
// one of them executes) and the daemon's request workers (the journal).
// Run waits for its workers, and a handler closes its connection only
// after the last request it read, so close waits for Run and then for
// every accepted connection to be closed by its handler. The daemon
// goroutines Run does not wait for (the heartbeat, the status publisher,
// the notify loop and the scheduler) write only through the loopback
// client, which is closed before that wait, so anything they try later
// fails without reaching the server.
func (n *sdNode) close() error {
	n.cancel()
	<-n.daemonDone
	for _, c := range []*nfs.Client{n.loop, n.disk} {
		if c != nil {
			c.Close()
		}
	}
	// No new connection can arrive once the listeners are closed, so the
	// wait below covers every handler.
	for _, ln := range []net.Listener{n.lnHost, n.lnLocal} {
		if ln != nil {
			ln.Close()
		}
	}
	n.serving.Wait()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		n.conns.Wait()
	}()
	var err error
	select {
	case <-drained:
	case <-time.After(drainTimeout):
		err = fmt.Errorf("%s: server connections still open %v after close", n.name, drainTimeout)
	}
	n.srv.Shutdown()
	<-drained
	return err
}

// trackedListener counts the connections it hands to the server until
// each is closed. The server's handler closes its connection as its last
// act, after the last request it read has been executed.
type trackedListener struct {
	net.Listener
	conns *sync.WaitGroup
}

func (l *trackedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.conns.Add(1)
	return &trackedConn{Conn: c, done: l.conns.Done}, nil
}

type trackedConn struct {
	net.Conn
	once sync.Once
	done func()
}

func (c *trackedConn) Close() error {
	c.once.Do(c.done)
	return c.Conn.Close()
}

// takeModuleRuns drains the traced module executions of every module.
func (n *sdNode) takeModuleRuns() []moduleRun {
	var out []moduleRun
	for _, m := range n.modules {
		out = append(out, m.take()...)
	}
	return out
}

// linkCounter counts the bytes that cross the modelled host link.
type linkCounter struct {
	up, down atomic.Int64
}

type countedConn struct {
	net.Conn
	c *linkCounter
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.down.Add(int64(n))
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.up.Add(int64(n))
	return n, err
}

// hostLink is the host's single modelled 1 GbE NIC: every host mount of
// every SD node shares its two bandwidth limiters, each mount pays the
// profile's one-way latency on its writes (the node's listener charges
// the other direction), and every byte is counted.
type hostLink struct {
	link  *netsim.Link
	count linkCounter
}

func newHostLink() *hostLink {
	return &hostLink{link: netsim.NewLink(netsim.ProfileGigabitEthernet)}
}

// mount dials one host connection to n's export through the link.
func (h *hostLink) mount(ctx context.Context, n *sdNode) (*nfs.Client, error) {
	raw, err := net.DialTimeout("tcp", n.lnHost.Addr().String(), dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("mounting %s: %w", n.name, err)
	}
	oneWay := netsim.ProfileGigabitEthernet.Latency
	conn := netsim.Throttle(ctx, netsim.Delay(ctx, &countedConn{Conn: raw, c: &h.count}, oneWay),
		h.link.BtoA, h.link.AtoB)
	return nfs.NewClient(conn), nil
}

// linkBandwidth is the modelled host link's bandwidth in bytes/s.
func linkBandwidth() float64 { return netsim.ProfileGigabitEthernet.BandwidthBps }

// sleepUntil waits until t and reports false if ctx ended first.
func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		return true
	}
}
