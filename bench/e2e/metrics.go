package main

import (
	"encoding/json"
	"math"
	"slices"
	"sort"

	"vmicache/internal/metrics"
)

// metricDef names one reported metric. Bound is the share of the parent's
// median an end-to-end metric may worsen by before a change is rejected;
// per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the gated metrics: what an operator deploying VMs sees. Every
// workload reports every one, and none is ever 0 (each op ends with a VM
// attached, so even the peer planes pay the base-header open on the storage
// node). error_rate and peer_bytes_per_op sit in perLayer because they are 0
// on a healthy run. The byte counts repeat exactly; the timings carry the
// widest bound the driver allows because one commit's medians moved by
// 6-19 % (IQR over ten runs) on the 2-core sandbox this was written on.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"storage_bytes_per_op", "B/op", "lower", 0.01},
	{"net_bytes_per_op", "B/op", "lower", 0.02},
	{"disk_bytes_per_cache_byte", "ratio", "lower", 0.02},
}

// perLayer is the layer budget, prefixed with the module each number belongs
// to. bench/README.md has the table of which end-to-end metric each should
// move on which workload.
var perLayer = []metricDef{
	{"error_rate", "ratio", "lower", 0},
	{"peer_bytes_per_op", "B/op", "lower", 0},

	{"cachemgr.acquire_p50_ms", "ms", "lower", 0},
	{"cachemgr.attach_p50_ms", "ms", "lower", 0},
	{"cachemgr.close_p50_ms", "ms", "lower", 0},
	{"cachemgr.acquire_self_ms", "ms", "lower", 0},
	{"cachemgr.published_bytes_per_op", "B/op", "lower", 0},
	{"cachemgr.cold_warms", "count", "lower", 0},
	{"cachemgr.peer_fetches", "count", "lower", 0},
	{"cachemgr.delta_warms", "count", "lower", 0},
	{"cachemgr.rehydrations", "count", "lower", 0},
	{"cachemgr.peer_fallbacks", "count", "lower", 0},
	{"cachemgr.warm_failures", "count", "lower", 0},
	{"cachemgr.attaches", "count", "lower", 0},

	{"core.open_chain_p50_ms", "ms", "lower", 0},
	{"core.chain_read_4k_us", "us", "lower", 0},
	{"core.pool_evictions", "count", "lower", 0},

	{"qcow.read_4k_us", "us", "lower", 0},
	{"qcow.read_64k_us", "us", "lower", 0},
	{"qcow.read_1m_us", "us", "lower", 0},
	{"qcow.translate_4k_us", "us", "lower", 0},
	{"qcow.open_ms", "ms", "lower", 0},
	{"qcow.check_ms", "ms", "lower", 0},
	{"qcow.l2_hit_ratio", "ratio", "higher", 0},
	{"qcow.l2_misses_per_op", "count/op", "lower", 0},
	{"qcow.local_bytes_per_op", "B/op", "higher", 0},
	{"qcow.backing_bytes_per_op", "B/op", "lower", 0},
	{"qcow.fill_ops_per_op", "count/op", "lower", 0},
	{"qcow.fill_p50_us", "us", "lower", 0},
	{"qcow.fill_waits_per_op", "count/op", "lower", 0},
	{"qcow.cow_fill_bytes_per_op", "B/op", "lower", 0},
	{"qcow.guest_write_bytes_per_op", "B/op", "lower", 0},
	{"qcow.mmap_read_bytes_per_op", "B/op", "higher", 0},
	{"qcow.zerocopy_export_bytes_per_op", "B/op", "higher", 0},

	{"backend.pread_4k_us", "us", "lower", 0},
	{"backend.pread_64k_us", "us", "lower", 0},
	{"backend.pread_1m_us", "us", "lower", 0},
	{"backend.warm_write_ms_per_op", "ms", "lower", 0},
	{"backend.warm_sync_ms_per_op", "ms", "lower", 0},
	{"backend.warm_sync_count_per_op", "count/op", "lower", 0},

	{"rblock.read_4k_us", "us", "lower", 0},
	{"rblock.read_64k_us", "us", "lower", 0},
	{"rblock.read_1m_us", "us", "lower", 0},
	{"rblock.read_1m_mb_per_s", "MB/s", "higher", 0},
	{"rblock.wire_4k_us", "us", "lower", 0},
	{"rblock.dial_open_us", "us", "lower", 0},
	{"rblock.client_requests_per_op", "count/op", "lower", 0},
	{"rblock.client_bytes_in_per_op", "B/op", "lower", 0},
	{"rblock.client_rtt_p50_us", "us", "lower", 0},
	{"rblock.client_rtt_p99_us", "us", "lower", 0},
	{"rblock.backing_wait_ms_per_op", "ms", "lower", 0},
	{"rblock.storage_read_ops_per_op", "count/op", "lower", 0},
	{"rblock.storage_req_p50_us", "us", "lower", 0},
	{"rblock.peer_read_ops_per_op", "count/op", "lower", 0},
	{"rblock.peer_req_p50_us", "us", "lower", 0},
	{"rblock.peer_zerocopy_bytes_per_op", "B/op", "higher", 0},
	{"rblock.peer_zerocopy_fallbacks_per_op", "count/op", "lower", 0},
	{"rblock.chunk_batches_per_op", "count/op", "lower", 0},

	{"dedup.delta_wire_bytes_per_op", "B/op", "lower", 0},
	{"dedup.reused_bytes_per_op", "B/op", "higher", 0},
	{"dedup.wire_to_delta_ratio", "ratio", "lower", 0},
	{"dedup.unique_comp_bytes", "B", "lower", 0},
	{"dedup.logical_bytes", "B", "lower", 0},
	{"dedup.shared_bytes", "B", "higher", 0},
	{"dedup.blobs", "count", "lower", 0},
	{"dedup.build_mb_per_s", "MB/s", "higher", 0},
	{"dedup.materialize_mb_per_s", "MB/s", "higher", 0},

	{"nbd.read_4k_us", "us", "lower", 0},
	{"nbd.read_64k_us", "us", "lower", 0},
	{"nbd.wire_4k_us", "us", "lower", 0},
	{"nbd.dial_ms", "ms", "lower", 0},

	{"boot.replay_p50_ms", "ms", "lower", 0},
	{"boot.read_p50_us", "us", "lower", 0},
	{"boot.read_p99_us", "us", "lower", 0},
	{"boot.write_p50_us", "us", "lower", 0},
	{"boot.flush_p50_us", "us", "lower", 0},
	{"boot.read_mb_per_s", "MB/s", "higher", 0},
	{"boot.replay_self_ms", "ms", "lower", 0},

	{"tail.op_p50_ms", "ms", "lower", 0},
	{"tail.op_p90_ms", "ms", "lower", 0},
	{"tail.op_max_ms", "ms", "lower", 0},
	{"tail.samples", "count", "higher", 0},

	{"proc.bench_cpu_ms_per_op", "ms", "lower", 0},
	{"proc.rblockd_cpu_ms_per_op", "ms", "lower", 0},
	{"proc.vmicached_cpu_ms_per_op", "ms", "lower", 0},
	{"proc.bench_rss_peak_mb", "MB", "lower", 0},
	{"proc.rblockd_rss_peak_mb", "MB", "lower", 0},
	{"proc.vmicached_rss_peak_mb", "MB", "lower", 0},
	{"proc.build_s", "s", "lower", 0},

	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.coverage_pct", "%", "higher", 0},

	{"repo.nontest_loc", "lines", "lower", 0},
	{"repo.vmicached_flags", "count", "lower", 0},
}

// manifest renders BENCHMARK.json from the tables above (`-manifest`), so the
// file and the program cannot drift; e2e_test.go compares the two.
func manifest() ([]byte, error) {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type boundedJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []boundedJSON  `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "bench", "./e2e"},
		Paths:      []string{"bench"},
		RunSeconds: 15,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadJSON{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, boundedJSON{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerJSON{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n'), err
}

// quantile returns the q-th quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = slices.Clone(xs)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// histDelta subtracts an earlier snapshot of a daemon histogram from a later
// one, leaving the observations made in between.
func histDelta(before, after metrics.HistogramSnapshot) metrics.HistogramSnapshot {
	prev := make(map[int]int64, len(before.Buckets))
	for _, b := range before.Buckets {
		prev[b.Exp] = b.Count
	}
	d := metrics.HistogramSnapshot{Count: after.Count - before.Count, Sum: after.Sum - before.Sum}
	for _, b := range after.Buckets {
		if n := b.Count - prev[b.Exp]; n > 0 {
			d.Buckets = append(d.Buckets, metrics.BucketCount{Exp: b.Exp, Count: n})
		}
	}
	return d
}

// histQuantile estimates the q-th quantile of a base-2 logarithmic histogram,
// interpolating linearly inside the bucket [2^exp, 2^(exp+1)) the quantile
// falls in — finer than metrics.Histogram.ApproxQuantile's power-of-two upper
// bound, which cannot show a 30 % move.
func histQuantile(h metrics.HistogramSnapshot, q float64) float64 {
	var total int64
	for _, b := range h.Buckets {
		total += b.Count
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var seen float64
	for _, b := range h.Buckets {
		if seen+float64(b.Count) >= target {
			lo := math.Pow(2, float64(b.Exp))
			return lo + lo*(target-seen)/float64(b.Count)
		}
		seen += float64(b.Count)
	}
	return math.Pow(2, float64(h.Buckets[len(h.Buckets)-1].Exp+1))
}
