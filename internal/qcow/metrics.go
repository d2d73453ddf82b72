package qcow

import (
	"strconv"

	"vmicache/internal/metrics"
)

// RegisterMetrics exposes the image's live Stats atomics on a metrics
// registry. The instruments are sampled at scrape time from the same atomics
// the data path already increments, so instrumentation adds zero work — and
// zero allocations — to the warm-read hot path. Labels (typically
// {"image": name}) distinguish multiple images on one registry; registering
// the same image twice is a no-op.
func (img *Image) RegisterMetrics(r *metrics.Registry, labels metrics.Labels) {
	s := &img.stats
	r.CounterFunc("vmicache_qcow_guest_read_ops_total",
		"Guest read requests served by the image.", labels, s.GuestReadOps.Load)
	r.CounterFunc("vmicache_qcow_guest_read_bytes_total",
		"Guest read bytes served by the image.", labels, s.GuestReadBytes.Load)
	r.CounterFunc("vmicache_qcow_guest_write_ops_total",
		"Guest write requests applied to the image.", labels, s.GuestWriteOps.Load)
	r.CounterFunc("vmicache_qcow_guest_write_bytes_total",
		"Guest write bytes applied to the image.", labels, s.GuestWriteBytes.Load)
	r.CounterFunc("vmicache_qcow_backing_read_ops_total",
		"Reads forwarded to the backing source (cold misses).", labels, s.BackingReadOps.Load)
	r.CounterFunc("vmicache_qcow_backing_bytes_total",
		"Bytes fetched from the backing source.", labels, s.BackingBytes.Load)
	r.CounterFunc("vmicache_qcow_local_bytes_total",
		"Guest-read bytes served from the image's own clusters (warm hits).", labels, s.LocalBytes.Load)
	r.CounterFunc("vmicache_qcow_cache_fill_ops_total",
		"Copy-on-read cluster fills performed by a cache image.", labels, s.CacheFillOps.Load)
	r.CounterFunc("vmicache_qcow_cache_fill_bytes_total",
		"Copy-on-read bytes written into a cache image.", labels, s.CacheFillBytes.Load)
	r.CounterFunc("vmicache_qcow_cache_full_events_total",
		"Fills refused because the cache quota was exhausted.", labels, s.CacheFullEvents.Load)
	r.CounterFunc("vmicache_qcow_cow_fill_bytes_total",
		"Partial-cluster backing fetches triggered by guest writes.", labels, s.CowFillBytes.Load)
	r.CounterFunc("vmicache_qcow_l2_cache_hits_total",
		"L2 translations served from the in-memory L2 cache.", labels, s.L2CacheHits.Load)
	r.CounterFunc("vmicache_qcow_l2_cache_misses_total",
		"L2 translations decoded from the container.", labels, s.L2CacheMisses.Load)
	for i := range img.l2c.shards {
		sh := &img.l2c.shards[i]
		shl := labels.With("shard", strconv.Itoa(i))
		r.CounterFunc("vmicache_qcow_l2_shard_hits_total",
			"L2 cache probes served by this shard.", shl, sh.hits.Load)
		r.CounterFunc("vmicache_qcow_l2_shard_misses_total",
			"L2 cache probes that missed in this shard.", shl, sh.misses.Load)
	}
	r.CounterFunc("vmicache_qcow_compressed_clusters_total",
		"Clusters written through WriteCompressedCluster.", labels, s.CompressedClusters.Load)
	r.CounterFunc("vmicache_qcow_compressed_bytes_total",
		"Deflate bytes stored for compressed clusters.", labels, s.CompressedBytes.Load)
	r.CounterFunc("vmicache_qcow_fill_waits_total",
		"Readers that waited on another reader's in-flight fill (singleflight followers).",
		labels, s.FillWaits.Load)
	r.CounterFunc("vmicache_qcow_subcluster_fills_total",
		"Sub-clusters written by demand partial fills.", labels, s.SubclusterFills.Load)
	r.CounterFunc("vmicache_qcow_subcluster_completions_total",
		"Sub-clusters topped up by CompleteAll before publication.", labels, s.SubclusterCompletions.Load)
	r.CounterFunc("vmicache_qcow_subcluster_partial_hits_total",
		"Guest reads served from a partially-valid cluster.", labels, s.SubclusterPartialHits.Load)
	r.CounterFunc("vmicache_qcow_zerocopy_exports_total",
		"Reads translated into container-file extents for zero-copy serving.",
		labels, s.ZeroCopyExports.Load)
	r.CounterFunc("vmicache_qcow_zerocopy_export_bytes_total",
		"Bytes exported as extents (served without a user-space copy).",
		labels, s.ZeroCopyExportBytes.Load)
	r.CounterFunc("vmicache_qcow_mmap_reads_total",
		"Warm raw reads copied from the table set's mapping.", labels, s.MmapReads.Load)
	r.CounterFunc("vmicache_qcow_mmap_read_bytes_total",
		"Bytes copied from the table set's mapping.", labels, s.MmapReadBytes.Load)
	r.GaugeFunc("vmicache_qcow_used_bytes",
		"Bytes of the container consumed by allocated clusters.", labels, img.UsedBytes)
	r.GaugeFunc("vmicache_qcow_cache_full",
		"1 when the cache image has stopped filling (quota exhausted), else 0.", labels,
		func() int64 {
			if img.CacheFull() {
				return 1
			}
			return 0
		})
	r.RegisterHistogram("vmicache_qcow_fill_latency_ns",
		"Duration of successful leader copy-on-read fills, fetch through bind.",
		labels, &s.FillLatency)
}
