package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vmicache/internal/boot"
	"vmicache/internal/cachemgr"
	"vmicache/internal/core"
	"vmicache/internal/metrics"
	"vmicache/internal/nbd"
	"vmicache/internal/rblock"
)

// workloadDef is one of the five deployments the benchmark replays. Every op
// is a closed-loop `Manager.Boot` → (replay) → `Session.Close`; the flags say
// which node the boot lands on and what the guest does.
type workloadDef struct {
	Name string
	Why  string // one line, copied into BENCHMARK.json

	Base      string // image each op boots
	Clients   int    // concurrent closed-loop clients (capped at nproc)
	FreshNode bool   // every op gets an empty (or template-restored) node
	Peer      bool   // a vmicached process A holds the cache already
	Dedup     bool   // -dedup on A and the node; the node starts from v1's template
	Replay    bool   // the guest replays the boot profile through the session
	NBD       bool   // ... over loopback NBD instead of calling the chain
}

var workloads = []workloadDef{
	{
		Name: "warm_boot", Base: v1Name, Clients: 2, Replay: true,
		Why: "cache already published: qcow translate + pread + attach do the work, rblock almost none; 2 VMs share the cache",
	},
	{
		Name: "nbd_boot", Base: v1Name, Clients: 1, Replay: true, NBD: true,
		Why: "warm boot with the guest behind loopback NBD: the same qcow read path diluted by a per-request socket hop",
	},
	{
		Name: "cold_boot", Base: v1Name, Clients: 1, FreshNode: true, Replay: true,
		Why: "first boot on an empty node: copy-on-read warm from rblockd, verify, fsync, publish; carries storage-node bytes",
	},
	{
		Name: "peer_warm", Base: v1Name, Clients: 1, FreshNode: true, Peer: true,
		Why: "empty node pulls the published cache wholesale from peer vmicached: 1 MiB sendfile replies, bypasses the CoR fill path",
	},
	{
		Name: "delta_update", Base: v2Name, Clients: 1, FreshNode: true, Peer: true, Dedup: true,
		Why: "node holding v1 warms v2 manifest-first from a -dedup peer: content-addressed plane only, bypasses CoR and wholesale",
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// config is what the command line fixes for every run.
type config struct {
	root    string // checkout root
	binDir  string // built rblockd, vmicached
	outDir  string // bench/out: logs, traces, result files
	seed    int64
	seconds float64
	quick   bool
	buildS  float64
}

func (c *config) baseSize() int64 {
	if c.quick {
		return 64 << 20
	}
	return 1 << 30
}

// run is one set-up of one workload: images, daemons and the compute node's
// own state.
type run struct {
	cfg   *config
	def   workloadDef
	dir   string // scratch directory of this set-up, removed by teardown
	guest *boot.Workload
	check func(off, n int64) []byte // Verify oracle for def.Base

	storage *daemon
	peer    *daemon // vmicached A; nil without def.Peer until the probes need one
	client  *rblock.Client
	nodeLog *os.File

	node     *node  // the persistent node of warm_boot / nbd_boot
	template string // delta_update: directory holding v1's cache and blobs
	lastNode string // last fresh node's directory, kept for disk accounting
	nbdSrv   *nbd.Server
	nbdAddr  string

	seq atomic.Int64
}

// node is the compute node under test: an in-process cachemgr.Manager
// configured the way cmd/vmicached/main.go configures it with default flags
// plus -warm-profile centos and the workload's -peers / -dedup.
type node struct {
	dir   string
	mgr   *cachemgr.Manager
	reg   *metrics.Registry // traced pass only: the counters Stats() leaves out
	start cachemgr.Stats
}

func (r *run) newNode(dir string, tr *tracer) (*node, error) {
	cfg := cachemgr.Config{
		Dir:         dir,
		WarmProfile: "centos",
		WarmWorkers: 1,
		WarmBudget:  16 << 20,
		Backing:     rblock.RemoteStore{C: r.client},
		Dedup:       r.def.Dedup,
		ZeroCopy:    true,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(r.nodeLog, format+"\n", args...)
		},
	}
	if r.def.Peer {
		cfg.Peers = []string{r.peer.addr}
	}
	n := &node{dir: dir}
	if tr != nil {
		cfg.Backing = tracedStore{Store: cfg.Backing, t: tr}
		cfg.WrapWarmFile = tr.wrapWarmFile
		n.reg = metrics.NewRegistry()
		cfg.Metrics = n.reg
	}
	mgr, err := cachemgr.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("node %s: %w", dir, err)
	}
	n.mgr, n.start = mgr, mgr.Stats()
	return n, nil
}

// setup builds everything the workload needs before its first op: base
// images, the storage daemon, peer A with its caches warmed, the node's
// pre-warmed cache or template. Its wall time is setup_s.
func (r *run) setup() (err error) {
	cfg, def := r.cfg, r.def
	r.dir, err = os.MkdirTemp(filepath.Join(cfg.root, buildDirName), "run-"+def.Name+"-")
	if err != nil {
		return err
	}
	storageDir := filepath.Join(r.dir, "storage")
	if err := os.MkdirAll(storageDir, 0o755); err != nil {
		return err
	}
	size := cfg.baseSize()
	r.guest = boot.Generate(guestProfile(size))
	contents := map[string]imageContent{v1Name: v1Content(size)}
	if def.Dedup {
		contents[v2Name] = v2Content(cfg.seed, size)
	}
	r.check = verifier(r.guest, contents[def.Base])
	touched := touchedClusters(r.guest)
	for name, content := range contents {
		if err := createBase(storageDir, name, content, touched); err != nil {
			return err
		}
	}

	r.storage, err = startDaemon(filepath.Join(cfg.binDir, "rblockd"),
		filepath.Join(cfg.outDir, "rblockd-"+def.Name+".log"),
		"-addr", "127.0.0.1:0", "-dir", storageDir, "-metrics-addr", "127.0.0.1:0")
	if err != nil {
		return err
	}
	if r.storage.metricsAddr, err = r.storage.waitFor(`metrics on http://(\S+)/metrics`, 10*time.Second); err != nil {
		return err
	}
	if r.storage.addr, err = r.storage.waitFor(`exporting \S+ on (\S+) `, 10*time.Second); err != nil {
		return err
	}
	if def.Peer {
		if err := r.startPeer(); err != nil {
			return err
		}
	}
	if r.client, err = rblock.Dial(r.storage.addr, 0); err != nil {
		return fmt.Errorf("dialing rblockd: %w", err)
	}
	if r.nodeLog, err = os.Create(filepath.Join(cfg.outDir, "node-"+def.Name+".log")); err != nil {
		return err
	}

	switch {
	case !def.FreshNode:
		// Pre-warm: the one cold warm this node ever does.
		if r.node, err = r.newNode(filepath.Join(r.dir, "node"), nil); err != nil {
			return err
		}
		lease, err := r.node.mgr.Acquire(def.Base)
		if err != nil {
			return fmt.Errorf("pre-warming %s: %w", def.Base, err)
		}
		lease.Release()
	case def.Dedup:
		// The template every op's node is restored from: v1's cache and its
		// blobs, pulled from A like any node that booted v1 earlier.
		r.template = filepath.Join(r.dir, "template")
		n, err := r.newNode(r.template, nil)
		if err != nil {
			return err
		}
		lease, err := n.mgr.Acquire(v1Name)
		if err != nil {
			return fmt.Errorf("building the v1 template: %w", err)
		}
		lease.Release()
		if err := n.mgr.Close(); err != nil {
			return err
		}
	}
	if def.NBD {
		r.nbdSrv = nbd.NewServer(nil)
		if r.nbdAddr, err = r.nbdSrv.Listen("127.0.0.1:0"); err != nil {
			return err
		}
	}
	return nil
}

// startPeer launches vmicached A and waits until it has published the caches
// the workload (or the probes) pull from it.
func (r *run) startPeer() (err error) {
	warm := []string{v1Name}
	args := []string{
		"-dir", filepath.Join(r.dir, "peer"), "-storage", r.storage.addr,
		"-export", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0", "-warm-profile", "centos",
	}
	if r.def.Dedup {
		warm = append(warm, v2Name)
		args = append(args, "-dedup")
	}
	args = append(args, "-warm", strings.Join(warm, ","))
	r.peer, err = startDaemon(filepath.Join(r.cfg.binDir, "vmicached"),
		filepath.Join(r.cfg.outDir, "vmicached-"+r.def.Name+".log"), args...)
	if err != nil {
		return err
	}
	if r.peer.metricsAddr, err = r.peer.waitFor(`metrics on http://(\S+)/metrics`, 10*time.Second); err != nil {
		return err
	}
	if r.peer.addr, err = r.peer.waitFor(`exporting published caches on (\S+)`, 10*time.Second); err != nil {
		return err
	}
	for _, base := range warm {
		if _, err := r.peer.waitFor(`vmicached: `+base+` ready as `, 60*time.Second); err != nil {
			return err
		}
	}
	return nil
}

// teardown stops everything setup started and removes the scratch directory.
func (r *run) teardown() {
	if r.nbdSrv != nil {
		r.nbdSrv.Close() //nolint:errcheck // teardown
	}
	if r.node != nil {
		r.node.mgr.Close() //nolint:errcheck // teardown
	}
	if r.client != nil {
		r.client.Close() //nolint:errcheck // teardown
	}
	if r.peer != nil {
		r.peer.stop()
	}
	if r.storage != nil {
		r.storage.stop()
	}
	if r.nodeLog != nil {
		r.nodeLog.Close() //nolint:errcheck // diagnostic log
	}
	if r.dir != "" {
		// Published caches are 0444 files in 0755 directories; RemoveAll
		// only needs the directories writable.
		os.RemoveAll(r.dir) //nolint:errcheck // scratch
	}
}

// dumpLogs prints the daemons' output when a run fails.
func (r *run) dumpLogs() {
	for _, d := range []*daemon{r.storage, r.peer} {
		if d != nil {
			d.dumpLog()
		}
	}
	if r.nodeLog != nil {
		if b, err := os.ReadFile(r.nodeLog.Name()); err == nil {
			fmt.Fprintf(os.Stderr, "---- in-process node log ----\n%s", b)
		}
	}
}

// opCounts accumulates what the ops of one pass did, read from public
// Stats() snapshots: the managers' path counters and the session chains'
// qcow counters.
type opCounts struct {
	coldWarms, peerFetches, deltaWarms, rehydrations int64
	peerFallbacks, warmFailures, attaches, evictions int64
	publishedBytes, peerBytes, deltaWire, reused     int64
	chunkBatches                                     int64
	dedup                                            cachemgrDedup

	l2Hits, l2Misses, localBytes, backingBytes int64
	fillOps, fillWaits, cowFillBytes           int64
	guestWriteBytes, mmapBytes, zcBytes        int64
}

// cachemgrDedup is the blob-store footprint of the last node seen.
type cachemgrDedup struct{ uniqueComp, logical, shared, blobs int64 }

func (c *opCounts) addStats(before, after cachemgr.Stats) {
	c.coldWarms += after.ColdWarms - before.ColdWarms
	c.peerFetches += after.PeerFetches - before.PeerFetches
	c.deltaWarms += after.DedupDeltaWarms - before.DedupDeltaWarms
	c.rehydrations += after.DedupRehydrations - before.DedupRehydrations
	c.peerFallbacks += after.PeerFallbacks - before.PeerFallbacks
	c.warmFailures += after.WarmFailures - before.WarmFailures
	c.attaches += after.Attaches - before.Attaches
	c.evictions += after.Evictions - before.Evictions
	c.publishedBytes += after.Used - before.Used
	c.deltaWire += after.DedupDeltaBytes - before.DedupDeltaBytes
	c.reused += after.DedupReusedBytes - before.DedupReusedBytes
	for addr, d := range after.Peers {
		c.peerBytes += d.Bytes - before.Peers[addr].Bytes
	}
	c.dedup = cachemgrDedup{
		uniqueComp: after.Dedup.UniqueCompBytes, logical: after.Dedup.LogicalBytes,
		shared: after.Dedup.SharedBytes, blobs: int64(after.Dedup.Blobs),
	}
}

// addChain folds in a session chain's counters just before it closes.
func (c *opCounts) addChain(ch *core.Chain) {
	for _, img := range ch.Images {
		s := img.Stats()
		c.l2Hits += s.L2CacheHits.Load()
		c.l2Misses += s.L2CacheMisses.Load()
		c.fillOps += s.CacheFillOps.Load()
		c.fillWaits += s.FillWaits.Load()
		c.cowFillBytes += s.CowFillBytes.Load()
		c.guestWriteBytes += s.GuestWriteBytes.Load()
		c.mmapBytes += s.MmapReadBytes.Load()
		c.zcBytes += s.ZeroCopyExportBytes.Load()
	}
	if cache := ch.CacheImage(); cache != nil {
		c.localBytes += cache.Stats().LocalBytes.Load()
		c.backingBytes += cache.Stats().BackingBytes.Load()
	}
}

// passResult is one closed-loop pass over the workload.
type passResult struct {
	opMs     []float64
	startMs  []float64 // when each op of opMs began, since the pass began
	clients  int
	failed   int
	firstErr error
	counts   opCounts
}

// pass runs ops in a closed loop — each client issues its next op when the
// previous one returns — until the duration has elapsed or maxOps were
// issued (0 = no count limit). Fresh nodes are made and retired outside the
// timed span. A traced or verifying pass runs one client.
func (r *run) pass(d time.Duration, maxOps int, tr *tracer, verify bool) (res passResult) {
	clients := min(r.def.Clients, runtime.NumCPU())
	if tr != nil || verify {
		clients = 1
	}
	res.clients = clients
	var mu sync.Mutex // guards res
	var issued atomic.Int64
	var stop atomic.Bool
	// fail records an error and ends the pass: the workloads are chosen so
	// that no op fails, and a failing one would otherwise spin.
	fail := func(err error) {
		res.failed++
		if res.firstErr == nil {
			res.firstErr = err
		}
		stop.Store(true)
	}
	passStart := time.Now()
	deadline := passStart.Add(d)

	n := r.node
	if n != nil && tr != nil {
		// The persistent node's manager was built without wrappers: reopen
		// its directory with them for this pass.
		n.mgr.Close() //nolint:errcheck // reopened below
		var err error
		if n, err = r.newNode(r.node.dir, tr); err != nil {
			fail(err)
			return res
		}
		defer func() {
			n.mgr.Close() //nolint:errcheck // the untraced manager takes the directory back
			if r.node, err = r.newNode(n.dir, nil); err != nil {
				fail(err)
			}
		}()
	}
	var before cachemgr.Stats
	if n != nil {
		before = n.mgr.Stats()
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if maxOps > 0 && issued.Add(1) > int64(maxOps) {
					return
				}
				if maxOps == 0 && !time.Now().Before(deadline) {
					return
				}
				on := n
				if r.def.FreshNode {
					var err error
					if on, err = r.freshNode(tr); err != nil {
						mu.Lock()
						fail(err)
						mu.Unlock()
						return
					}
				}
				start := time.Now()
				err := tr.in(spanOp, func() error { return r.op(on, tr, verify, &mu, &res.counts) })
				took := time.Since(start)
				mu.Lock()
				if r.def.FreshNode {
					res.counts.addStats(on.start, on.mgr.Stats())
					res.chunkBatchesFrom(on)
					if cerr := r.retire(on); err == nil {
						err = cerr
					}
				}
				if err != nil {
					fail(err)
				} else {
					res.opMs = append(res.opMs, float64(took)/1e6)
					res.startMs = append(res.startMs, float64(start.Sub(passStart))/1e6)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if n != nil {
		res.counts.addStats(before, n.mgr.Stats())
	}
	return res
}

// quietWindows is how many equal stretches the measured pass is cut into.
const quietWindows = 5

// quietest cuts the pass into quietWindows stretches by op start time and
// returns the median op time and the throughput of the stretch whose median
// is lowest. Interference on a shared machine only ever adds time and comes
// in bursts of seconds; the whole-pass median moved 10–17 % between runs of
// one commit under it, where the quietest stretch is what the code costs.
// Stretches with fewer than a quarter of their share of the ops (a stall
// swallowed them) are skipped.
func (res *passResult) quietest() (p50Ms, opsPerS float64) {
	if len(res.opMs) == 0 {
		return 0, 0
	}
	span := res.startMs[len(res.startMs)-1] + 1
	for _, s := range res.startMs {
		span = max(span, s+1)
	}
	windows := make([][]float64, quietWindows)
	for i, s := range res.startMs {
		w := int(s / span * quietWindows)
		windows[w] = append(windows[w], res.opMs[i])
	}
	minOps := len(res.opMs) / (4 * quietWindows)
	for _, w := range windows {
		if len(w) == 0 || len(w) < minOps {
			continue
		}
		var busy float64
		for _, ms := range w {
			busy += ms
		}
		if med := median(w); p50Ms == 0 || med < p50Ms {
			p50Ms, opsPerS = med, float64(len(w))*float64(res.clients)/(busy/1e3)
		}
	}
	return p50Ms, opsPerS
}

// chunkBatchesFrom reads the one path counter cachemgr.Stats leaves out from
// the registry a traced node carries.
func (res *passResult) chunkBatchesFrom(n *node) {
	if n.reg == nil {
		return
	}
	for _, m := range n.reg.Gather() {
		if m.Name == "vmicache_dedup_chunk_batches_total" {
			res.counts.chunkBatches += m.Value
		}
	}
}

// freshNode makes the node one op boots on: an empty cache directory, or for
// delta_update a copy of the v1 template.
func (r *run) freshNode(tr *tracer) (*node, error) {
	dir := filepath.Join(r.dir, fmt.Sprintf("node-%d", r.seq.Add(1)))
	if r.template != "" {
		if err := linkTree(dir, r.template); err != nil {
			return nil, err
		}
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return r.newNode(dir, tr)
}

// retire closes a fresh node's manager and drops the node before it, keeping
// only the latest directory for the end-of-run disk accounting.
func (r *run) retire(n *node) error {
	err := n.mgr.Close()
	if r.lastNode != "" {
		os.RemoveAll(r.lastNode) //nolint:errcheck // scratch
	}
	r.lastNode = n.dir
	return err
}

// op is the timed unit: boot a VM on the node, let the guest run, tear the
// session down. The traced form splits Boot into Acquire (the warm, if any)
// and the attach that follows it, and drops the extra lease.
func (r *run) op(n *node, tr *tracer, verify bool, mu *sync.Mutex, counts *opCounts) error {
	vm := fmt.Sprintf("vm%d", r.seq.Add(1))
	var sess *cachemgr.Session
	var err error
	if tr == nil {
		sess, err = n.mgr.Boot(r.def.Base, vm)
	} else {
		var lease *cachemgr.Lease
		err = tr.in(spanAcquire, func() (e error) { lease, e = n.mgr.Acquire(r.def.Base); return })
		if err == nil {
			err = tr.in(spanAttach, func() (e error) { sess, e = n.mgr.Boot(r.def.Base, vm); return })
			lease.Release()
		}
	}
	if err != nil {
		return err
	}
	if r.def.Replay || verify {
		err = tr.in(spanReplay, func() error { return r.replay(sess, vm, tr, verify) })
	}
	mu.Lock()
	counts.addChain(sess.Chain)
	mu.Unlock()
	if cerr := tr.in(spanClose, sess.Close); err == nil {
		err = cerr
	}
	return err
}

// replay runs the guest's boot against the session, directly or through
// loopback NBD the way a hypervisor attaches.
func (r *run) replay(sess *cachemgr.Session, vm string, tr *tracer, verify bool) error {
	var dev boot.Device = sess.Chain
	if r.def.NBD {
		r.nbdSrv.AddExport(nbd.Export{Name: vm, Device: sess.Chain})
		defer r.nbdSrv.RemoveExport(vm)
		c, err := nbd.Dial(r.nbdAddr, vm)
		if err != nil {
			return err
		}
		defer c.Close() //nolint:errcheck // replay result already decided
		dev = c
	}
	if tr != nil {
		dev = tracedDevice{dev: dev, t: tr}
	}
	opts := boot.ReplayOpts{}
	if verify {
		opts.Verify = r.check
	}
	_, err := boot.Replay(r.guest, dev, opts)
	return err
}

// checkPath asserts the pass took the mechanism the workload exists to
// measure; a silent fallback would otherwise be timed as if it were the path.
func (r *run) checkPath(c opCounts, ops int, traced bool) error {
	n := int64(ops)
	warms := c.coldWarms + c.peerFetches + c.deltaWarms + c.rehydrations
	attaches := n
	if traced {
		attaches = 2 * n // Acquire, then Boot's own acquire
	}
	var bad string
	switch {
	case c.attaches != attaches:
		bad = fmt.Sprintf("attaches = %d, want %d", c.attaches, attaches)
	case c.warmFailures != 0 || c.peerFallbacks != 0:
		bad = fmt.Sprintf("%d warm failures, %d peer fallbacks", c.warmFailures, c.peerFallbacks)
	case !r.def.FreshNode && warms != 0:
		bad = fmt.Sprintf("%d warms on a warm node", warms)
	case r.def.FreshNode && !r.def.Peer && (c.coldWarms != n || warms != n):
		bad = fmt.Sprintf("cold warms = %d of %d warms, want %d", c.coldWarms, warms, n)
	case r.def.Peer && !r.def.Dedup && (c.peerFetches != n || c.coldWarms != 0):
		bad = fmt.Sprintf("peer fetches = %d, cold warms = %d, want %d and 0", c.peerFetches, c.coldWarms, n)
	case r.def.Dedup && c.deltaWarms != n:
		bad = fmt.Sprintf("delta warms = %d, want %d", c.deltaWarms, n)
	}
	if bad != "" {
		return fmt.Errorf("%s did not take its intended path over %d ops: %s", r.def.Name, ops, bad)
	}
	return nil
}

// diskRatio is disk_bytes_per_cache_byte for the node the run ends with.
func (r *run) diskRatio() (float64, error) {
	dir := r.lastNode
	if r.node != nil {
		dir = r.node.dir
	}
	disk, err := dirBytes(dir)
	if err != nil {
		return 0, err
	}
	valid, err := cacheValidBytes(dir)
	if err != nil {
		return 0, err
	}
	if valid == 0 {
		return 0, fmt.Errorf("%s: no valid bytes in the published caches under %s", r.def.Name, dir)
	}
	return float64(disk) / float64(valid), nil
}
