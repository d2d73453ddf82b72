package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"time"

	"vmicache/internal/metrics"
	"vmicache/internal/rblock"
)

// result is what one run of one workload reports.
type result struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Clients   int                `json:"clients"`
	Samples   int                `json:"samples"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// HighPct is the highest percentile with at least ten samples beyond
	// it, and HighMs the op time there; diagnostic like the tail. group.
	HighPct float64 `json:"high_percentile"`
	HighMs  float64 `json:"high_percentile_ms"`
	Err     string  `json:"error,omitempty"`
}

// snapshot is the outside view of every process at one instant: the daemons'
// /metrics.json, the node's storage connection, and /proc.
type snapshot struct {
	storage, peer scrape
	client        rblock.ClientStats
	bench         procUsage
	rblockd       procUsage
	vmicached     procUsage
}

func (r *run) snapshot() (s snapshot, err error) {
	if s.storage, err = r.storage.scrape(); err != nil {
		return s, err
	}
	if r.peer != nil {
		if s.peer, err = r.peer.scrape(); err != nil {
			return s, err
		}
	}
	s.client = r.client.Stats()
	s.bench = readProcUsage(os.Getpid())
	s.rblockd, s.vmicached = r.storage.usage(), r.peer.usage()
	return s, nil
}

const (
	setupReps  = 5  // set-ups per run; setup_s is their median
	tracedOps  = 20 // ops of the traced pass
	warmupSecs = 2.0
)

// runWorkload sets the workload up, checks its outputs, measures it untraced
// and — when layers is set — traces it and runs the probe loop.
func runWorkload(cfg *config, def workloadDef, layers bool) (res *result, err error) {
	res = &result{Workload: def.Name, EndToEnd: map[string]float64{}}
	reps := setupReps
	if cfg.quick {
		reps = 1
	}
	var setups []float64
	var r *run
	for i := 0; i < reps; i++ {
		if r != nil {
			r.teardown()
		}
		r = &run{cfg: cfg, def: def}
		start := time.Now()
		if err := r.setup(); err != nil {
			r.dumpLogs()
			r.teardown()
			return nil, fmt.Errorf("%s: set-up: %w", def.Name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer r.teardown()
	defer func() {
		if err != nil || !res.Correct {
			r.dumpLogs()
		}
	}()
	res.EndToEnd["setup_s"] = median(setups)

	// Correctness first: one op whose every guest read is checked against
	// the content oracle. Timed ops skip the oracle (it costs more than the
	// read it checks).
	verified := r.pass(0, 1, nil, true)
	res.Attempted, res.Failed = 1, verified.failed
	if verified.firstErr != nil {
		res.Err = "verification: " + verified.firstErr.Error()
	}

	measured, warmup, maxOps := time.Duration(cfg.seconds*float64(time.Second)), time.Duration(0), 0
	if cfg.quick {
		measured, maxOps = 0, 1
	} else {
		warmup = time.Duration(min(warmupSecs, cfg.seconds/5) * float64(time.Second))
		if w := r.pass(warmup, 0, nil, false); w.firstErr != nil && res.Err == "" {
			res.Failed += w.failed
			res.Err = "warm-up: " + w.firstErr.Error()
		}
	}

	before, err := r.snapshot()
	if err != nil {
		return res, err
	}
	m := r.pass(measured, maxOps, nil, false)
	after, err := r.snapshot()
	if err != nil {
		return res, err
	}
	ops := len(m.opMs)
	res.Attempted += ops + m.failed
	res.Failed += m.failed
	res.Clients, res.Samples = m.clients, ops
	if m.firstErr != nil && res.Err == "" {
		res.Err = "measured pass: " + m.firstErr.Error()
	}
	if ops == 0 {
		return res, fmt.Errorf("%s: no op completed: %s", def.Name, res.Err)
	}
	if err := r.checkPath(m.counts, ops+m.failed, false); err != nil && res.Err == "" {
		res.Failed++
		res.Err = err.Error()
	}
	disk, err := r.diskRatio()
	if err != nil {
		return res, err
	}

	storageBytes := float64(after.storage.value("vmicache_rblock_server_bytes_read_total", nil)-
		before.storage.value("vmicache_rblock_server_bytes_read_total", nil)) / float64(ops)
	peerBytes := float64(m.counts.peerBytes) / float64(ops)
	res.EndToEnd["op_p50_ms"], res.EndToEnd["ops_per_s"] = m.quietest()
	res.EndToEnd["storage_bytes_per_op"] = storageBytes
	res.EndToEnd["net_bytes_per_op"] = storageBytes + peerBytes
	res.EndToEnd["disk_bytes_per_cache_byte"] = disk
	// The highest percentile with at least ten samples beyond it.
	if ops > 20 {
		res.HighPct = 100 * (1 - 10/float64(ops))
		res.HighMs = quantile(m.opMs, res.HighPct/100)
	}

	if layers {
		res.PerLayer = map[string]float64{}
		if err := r.layers(res, m, before, after); err != nil {
			return res, err
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// layers runs the traced pass and the probes and fills res.PerLayer. Counts
// come from the untraced measured pass m and the snapshots around it; spans
// from the traced pass; probes from the fixed-count loops.
func (r *run) layers(res *result, m passResult, before, after snapshot) error {
	cfg, out := r.cfg, res.PerLayer
	for _, d := range perLayer {
		out[d.Name] = 0 // a metric that does not apply to this workload reads 0
	}
	ops := float64(len(m.opMs))
	perOp := func(n int64) float64 { return float64(n) / ops }

	nTraced := tracedOps
	if cfg.quick {
		nTraced = 2
	}
	tr := newTracer()
	t := r.pass(0, nTraced, tr, false)
	if err := tr.write(filepath.Join(cfg.outDir, "trace-"+r.def.Name+".json")); err != nil {
		return err
	}
	if t.firstErr != nil {
		return fmt.Errorf("%s: traced pass: %w", r.def.Name, t.firstErr)
	}
	if err := r.checkPath(t.counts, len(t.opMs), true); err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	ts := tr.summarize()
	if ts.coveragePct < 98 || ts.coveragePct > 102 {
		return fmt.Errorf("%s: traced self times sum to %.2f%% of the op total (want 98–102)", r.def.Name, ts.coveragePct)
	}

	c := m.counts
	out["error_rate"] = float64(res.Failed) / float64(res.Attempted)
	out["peer_bytes_per_op"] = perOp(c.peerBytes)

	out["cachemgr.acquire_p50_ms"] = median(ts.durMs[spanAcquire])
	out["cachemgr.attach_p50_ms"] = median(ts.durMs[spanAttach])
	out["cachemgr.close_p50_ms"] = median(ts.durMs[spanClose])
	out["cachemgr.acquire_self_ms"] = ts.selfPerOpMs[spanAcquire]
	out["cachemgr.published_bytes_per_op"] = perOp(c.publishedBytes)
	out["cachemgr.cold_warms"] = float64(c.coldWarms)
	out["cachemgr.peer_fetches"] = float64(c.peerFetches)
	out["cachemgr.delta_warms"] = float64(c.deltaWarms)
	out["cachemgr.rehydrations"] = float64(c.rehydrations)
	out["cachemgr.peer_fallbacks"] = float64(c.peerFallbacks)
	out["cachemgr.warm_failures"] = float64(c.warmFailures)
	out["cachemgr.attaches"] = float64(c.attaches)
	out["core.pool_evictions"] = float64(c.evictions)

	// qcow counts: the session chains of the measured pass, plus — where
	// the op warms through copy-on-read — the warm chain of the fill probe.
	var warm opCounts
	var fills metrics.HistogramSnapshot
	warms := 1.0
	if r.def.FreshNode && !r.def.Peer {
		reps := 3
		if cfg.quick {
			reps = 1
		}
		var err error
		if warm, fills, err = r.fillProbe(reps); err != nil {
			return err
		}
		warms = float64(reps)
	}
	both := func(session, warmed int64) float64 { return float64(session)/ops + float64(warmed)/warms }
	if hits, misses := both(c.l2Hits, warm.l2Hits), both(c.l2Misses, warm.l2Misses); hits+misses > 0 {
		out["qcow.l2_hit_ratio"] = hits / (hits + misses)
	}
	out["qcow.l2_misses_per_op"] = both(c.l2Misses, warm.l2Misses)
	out["qcow.local_bytes_per_op"] = both(c.localBytes, warm.localBytes)
	out["qcow.backing_bytes_per_op"] = both(c.backingBytes, warm.backingBytes)
	out["qcow.fill_ops_per_op"] = both(c.fillOps, warm.fillOps)
	out["qcow.fill_p50_us"] = histQuantile(fills, 0.5) / 1e3
	out["qcow.fill_waits_per_op"] = both(c.fillWaits, warm.fillWaits)
	out["qcow.cow_fill_bytes_per_op"] = perOp(c.cowFillBytes)
	out["qcow.guest_write_bytes_per_op"] = perOp(c.guestWriteBytes)
	out["qcow.mmap_read_bytes_per_op"] = perOp(c.mmapBytes)
	out["qcow.zerocopy_export_bytes_per_op"] = perOp(c.zcBytes)

	out["backend.warm_write_ms_per_op"] = ts.perOpMs[spanWarmWrite]
	out["backend.warm_sync_ms_per_op"] = ts.perOpMs[spanWarmSync]
	out["backend.warm_sync_count_per_op"] = ts.countPerOp[spanWarmSync]

	rtt := histDelta(before.client.RTT, after.client.RTT)
	out["rblock.client_requests_per_op"] = perOp(after.client.Requests - before.client.Requests)
	out["rblock.client_bytes_in_per_op"] = perOp(after.client.BytesIn - before.client.BytesIn)
	out["rblock.client_rtt_p50_us"] = histQuantile(rtt, 0.5) / 1e3
	out["rblock.client_rtt_p99_us"] = histQuantile(rtt, 0.99) / 1e3
	out["rblock.backing_wait_ms_per_op"] = ts.perOpMs[spanBackingRead]
	delta := func(a, b scrape, name string, l metrics.Labels) float64 {
		return perOp(b.value(name, l) - a.value(name, l))
	}
	export := metrics.Labels{"server": "peer-export"}
	out["rblock.storage_read_ops_per_op"] = delta(before.storage, after.storage, "vmicache_rblock_server_read_ops_total", nil)
	out["rblock.storage_req_p50_us"] = histQuantile(histDelta(
		before.storage.hist("vmicache_rblock_server_request_ns", nil),
		after.storage.hist("vmicache_rblock_server_request_ns", nil)), 0.5) / 1e3
	out["rblock.peer_read_ops_per_op"] = delta(before.peer, after.peer, "vmicache_rblock_server_read_ops_total", export)
	out["rblock.peer_req_p50_us"] = histQuantile(histDelta(
		before.peer.hist("vmicache_rblock_server_request_ns", export),
		after.peer.hist("vmicache_rblock_server_request_ns", export)), 0.5) / 1e3
	out["rblock.peer_zerocopy_bytes_per_op"] = delta(before.peer, after.peer, "vmicache_rblock_server_zerocopy_bytes_total", export)
	out["rblock.peer_zerocopy_fallbacks_per_op"] = delta(before.peer, after.peer, "vmicache_rblock_server_zerocopy_fallbacks_total", export)
	out["rblock.chunk_batches_per_op"] = float64(t.counts.chunkBatches) / float64(len(t.opMs))

	out["dedup.delta_wire_bytes_per_op"] = perOp(c.deltaWire)
	out["dedup.reused_bytes_per_op"] = perOp(c.reused)
	out["dedup.unique_comp_bytes"] = float64(c.dedup.uniqueComp)
	out["dedup.logical_bytes"] = float64(c.dedup.logical)
	out["dedup.shared_bytes"] = float64(c.dedup.shared)
	out["dedup.blobs"] = float64(c.dedup.blobs)
	if r.def.Dedup {
		differ, err := r.cacheDiffBytes()
		if err != nil {
			return err
		}
		if differ > 0 {
			out["dedup.wire_to_delta_ratio"] = perOp(c.deltaWire) / float64(differ)
		}
	}

	out["boot.replay_p50_ms"] = median(ts.durMs[spanReplay])
	out["boot.read_p50_us"] = 1e3 * median(ts.durMs[spanRead])
	out["boot.read_p99_us"] = 1e3 * quantile(ts.durMs[spanRead], 0.99)
	out["boot.write_p50_us"] = 1e3 * median(ts.durMs[spanWrite])
	out["boot.flush_p50_us"] = 1e3 * median(ts.durMs[spanFlush])
	if readMs := ts.perOpMs[spanRead]; readMs > 0 {
		out["boot.read_mb_per_s"] = float64(r.guest.TotalReadBytes()) / 1e3 / readMs
	}
	out["boot.replay_self_ms"] = ts.selfPerOpMs[spanReplay]

	out["tail.op_p50_ms"] = median(m.opMs)
	out["tail.op_p90_ms"] = quantile(m.opMs, 0.90)
	out["tail.op_max_ms"] = quantile(m.opMs, 1)
	out["tail.samples"] = ops

	out["proc.bench_cpu_ms_per_op"] = (after.bench.cpuMs - before.bench.cpuMs) / ops
	out["proc.rblockd_cpu_ms_per_op"] = (after.rblockd.cpuMs - before.rblockd.cpuMs) / ops
	out["proc.vmicached_cpu_ms_per_op"] = (after.vmicached.cpuMs - before.vmicached.cpuMs) / ops
	out["proc.bench_rss_peak_mb"] = after.bench.rssPeakMB
	out["proc.rblockd_rss_peak_mb"] = after.rblockd.rssPeakMB
	out["proc.vmicached_rss_peak_mb"] = after.vmicached.rssPeakMB
	out["proc.build_s"] = cfg.buildS

	// Tracing overhead compares like with like: whole-pass medians at the
	// traced pass's one client.
	untraced := median(m.opMs)
	if m.clients > 1 {
		ref := r.pass(0, nTraced, nil, false)
		if ref.firstErr != nil {
			return fmt.Errorf("%s: single-client reference pass: %w", r.def.Name, ref.firstErr)
		}
		untraced = median(ref.opMs)
	}
	out["trace.overhead_pct"] = 100 * (median(t.opMs) - untraced) / untraced
	out["trace.coverage_pct"] = ts.coveragePct

	loc, err := nontestLOC(cfg.root)
	if err != nil {
		return err
	}
	out["repo.nontest_loc"] = float64(loc)
	out["repo.vmicached_flags"] = float64(countFlags(filepath.Join(cfg.binDir, "vmicached")))

	return r.probe(out)
}

// cacheDiffBytes counts the bytes that differ between the v1 and v2 cache
// files of the last node: the true delta a transfer could not avoid.
func (r *run) cacheDiffBytes() (int64, error) {
	read := func(base string) ([]byte, error) {
		m, err := filepath.Glob(filepath.Join(r.lastNode, base+"-*.vmic"))
		if err != nil || len(m) != 1 {
			return nil, fmt.Errorf("want one %s cache in %s, found %v (%v)", base, r.lastNode, m, err)
		}
		return os.ReadFile(m[0])
	}
	a, err := read(v1Name)
	if err != nil {
		return 0, err
	}
	b, err := read(v2Name)
	if err != nil {
		return 0, err
	}
	if len(a) > len(b) {
		a, b = b, a
	}
	differ := int64(len(b) - len(a))
	for i := range a {
		if a[i] != b[i] {
			differ++
		}
	}
	return differ, nil
}

// nontestLOC counts the lines of the repository's non-test Go files, the
// benchmark's own excluded.
func nontestLOC(root string) (int, error) {
	var lines int
	err := filepath.Walk(root, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.IsDir() {
			if n := fi.Name(); path != root && (strings.HasPrefix(n, ".") || path == filepath.Join(root, "bench")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		lines += bytes.Count(b, []byte{'\n'})
		return nil
	})
	return lines, err
}

// countFlags counts the flags the built vmicached binary declares, from its
// own usage text.
func countFlags(bin string) int {
	out, _ := exec.Command(bin, "-h").CombinedOutput() //nolint:errcheck // -h exits non-zero by design
	flagLine := regexp.MustCompile(`^\s+-[a-z]`)
	var n int
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if flagLine.MatchString(sc.Text()) {
			n++
		}
	}
	return n
}
