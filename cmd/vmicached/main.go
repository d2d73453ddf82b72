// Command vmicached runs the node-local VM image cache manager daemon: it
// owns a cache directory, warms caches for the listed base images (pulling
// them wholesale from peer nodes when possible, falling back to copy-on-read
// from the storage node), exports its published caches to peers over rblock,
// and evicts least-recently-used caches under the configured disk budget.
//
// Usage:
//
//	vmicached -dir DIR -storage HOST:PORT [flags]
//
// Flags:
//
//	-dir DIR         cache directory (required)
//	-storage ADDR    rblock address of the storage node (required)
//	-export ADDR     address to export published caches on (default :10811)
//	-peers A,B,...   peer vmicached export addresses, tried before storage
//	-budget SIZE     node cache disk budget, e.g. 10G (0 = unbounded)
//	-quota SIZE      per-cache fill quota (0 = whole base + metadata)
//	-cluster-bits N  cache cluster size exponent (0 = default)
//	-subclusters     fill caches at 4 KiB sub-cluster granularity
//	-warm A,B,...    base image names to warm at startup
//	-warm-profile P  boot profile guiding cold warms (centos/debian/windows)
//	-status DUR      periodic status print interval (0 = only on shutdown)
//	-drain DUR       graceful-shutdown drain deadline
//	-metrics-addr A  serve /metrics, /metrics.json and /debug/pprof on A
//	-pprof-mutex-frac N   sample 1-in-N mutex contention events (0 = off)
//	-pprof-block-rate NS  sample blocking events slower than NS ns (0 = off)
//	-zerocopy        serve peer transfers of published caches via sendfile(2)
//	                 (default on; Linux only, elsewhere it copies)
//	-dedup           keep a content-addressed chunk store; peer warms become
//	                 manifest-first and move only the chunks this node lacks
//	-dedup-jobs N    dedup pipeline parallelism: chunk hash/compress workers
//	                 for publication and materialization (0 = GOMAXPROCS)
//	-swarm           warm cold caches chunk-wise from every peer at once
//	-tracker URL     swarm announce tracker base URL (http://host:port)
//	-tracker-listen A     also host the announce tracker on A
//	-swarm-self A    address announced to the swarm (default: -export bound)
//	-swarm-chunk-bits N   swarm chunk size exponent (default 16 = 64 KiB)
//	-swarm-max-peers N    peers each warm polls and fetches from (0 = all)
//
// A flash crowd boots one image on many nodes at once: one node hosts the
// tracker (-tracker-listen), every node starts with -swarm and -tracker
// pointing at it, and each warms chunk-wise from all the others while still
// warming itself — the storage node sends roughly one copy total, no matter
// the crowd size.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"vmicache/internal/cachemgr"
	"vmicache/internal/metrics"
	"vmicache/internal/rblock"
	"vmicache/internal/swarm"
)

func main() {
	fs := flag.NewFlagSet("vmicached", flag.ExitOnError)
	dir := fs.String("dir", "", "cache directory (required)")
	storage := fs.String("storage", "", "rblock address of the storage node (required)")
	export := fs.String("export", "127.0.0.1:10811", "address to export published caches on (empty disables)")
	peers := fs.String("peers", "", "comma-separated peer export addresses")
	budget := fs.String("budget", "0", "node cache disk budget (bytes; K/M/G suffixes)")
	quota := fs.String("quota", "0", "per-cache fill quota (bytes; K/M/G suffixes)")
	clusterBits := fs.Int("cluster-bits", 0, "cache cluster size exponent (0 = default)")
	subclusters := fs.Bool("subclusters", false, "fill caches at 4 KiB sub-cluster granularity (needs -cluster-bits >= 13)")
	warm := fs.String("warm", "", "comma-separated base image names to warm at startup")
	warmProfile := fs.String("warm-profile", "", "boot profile guiding cold warms (centos/debian/windows; empty = whole image)")
	status := fs.Duration("status", 0, "periodic status interval (0 = only on shutdown)")
	drain := fs.Duration("drain", 5*time.Second, "graceful-shutdown drain deadline")
	metricsAddr := fs.String("metrics-addr", "", "observability address (/metrics, /metrics.json, /debug/pprof); empty disables")
	dedupOn := fs.Bool("dedup", false, "keep a content-addressed chunk store: sibling caches share storage, peer warms move only missing chunks")
	dedupJobs := fs.Int("dedup-jobs", 0, "dedup pipeline parallelism for chunk hash/compress work (0 = GOMAXPROCS, 1 = serial)")
	zeroCopy := fs.Bool("zerocopy", true, "serve peer transfers of published caches via sendfile(2) (Linux; other platforms fall back to copying)")
	swarmOn := fs.Bool("swarm", false, "warm cold caches via chunk-level swarm transfer from peers")
	tracker := fs.String("tracker", "", "swarm announce tracker base URL, e.g. http://10.0.0.1:9091")
	trackerListen := fs.String("tracker-listen", "", "also host the swarm announce tracker over HTTP on this address")
	swarmSelf := fs.String("swarm-self", "", "peer-export address announced to the swarm (default: the -export bound address)")
	swarmChunkBits := fs.Int("swarm-chunk-bits", 0, "swarm transfer chunk size exponent (0 = default, 64 KiB)")
	swarmMaxPeers := fs.Int("swarm-max-peers", 0, "bound on peers each swarm warm polls and fetches from (0 = all)")
	mutexFrac := fs.Int("pprof-mutex-frac", 0, "mutex contention sampling fraction (runtime.SetMutexProfileFraction); 0 disables")
	blockRate := fs.Int("pprof-block-rate", 0, "blocking-event sampling rate in ns (runtime.SetBlockProfileRate); 0 disables")
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError
	metrics.SetProfileRates(*mutexFrac, *blockRate)

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "vmicached: "+format+"\n", args...)
		os.Exit(1)
	}
	if *dir == "" || *storage == "" {
		fail("-dir and -storage are required")
	}
	budgetBytes, err := parseSize(*budget)
	if err != nil {
		fail("-budget: %v", err)
	}
	quotaBytes, err := parseSize(*quota)
	if err != nil {
		fail("-quota: %v", err)
	}

	var reg *metrics.Registry
	if *metricsAddr != "" {
		reg = metrics.NewRegistry()
		msrv, err := metrics.ListenAndServe(*metricsAddr, reg)
		if err != nil {
			fail("-metrics-addr %s: %v", *metricsAddr, err)
		}
		defer msrv.Close() //nolint:errcheck // terminating anyway
		fmt.Printf("vmicached: metrics on http://%s/metrics\n", msrv.Addr())
	}

	if *trackerListen != "" {
		ln, err := net.Listen("tcp", *trackerListen)
		if err != nil {
			fail("-tracker-listen %s: %v", *trackerListen, err)
		}
		tsrv := &http.Server{Handler: swarm.NewTracker(0, nil).Handler()}
		go tsrv.Serve(ln) //nolint:errcheck // reported on requests
		defer tsrv.Close()
		fmt.Printf("vmicached: swarm tracker on http://%s\n", ln.Addr())
	}
	var announcer swarm.Announcer
	if *tracker != "" {
		announcer = &swarm.TrackerClient{Base: *tracker}
	}

	client, err := rblock.Dial(*storage, 0)
	if err != nil {
		fail("dialing storage node %s: %v", *storage, err)
	}
	if reg != nil {
		client.RegisterMetrics(reg, metrics.Labels{"peer": "storage"})
	}
	mgr, err := cachemgr.New(cachemgr.Config{
		Dir:            *dir,
		Budget:         budgetBytes,
		Quota:          quotaBytes,
		ClusterBits:    *clusterBits,
		Subclusters:    *subclusters,
		WarmProfile:    *warmProfile,
		Backing:        rblock.RemoteStore{C: client},
		Peers:          splitList(*peers),
		Metrics:        reg,
		Dedup:          *dedupOn,
		DedupWorkers:   *dedupJobs,
		ZeroCopy:       *zeroCopy,
		SwarmEnabled:   *swarmOn,
		SwarmSelf:      *swarmSelf,
		SwarmTracker:   announcer,
		SwarmChunkBits: *swarmChunkBits,
		SwarmMaxPeers:  *swarmMaxPeers,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fail("%v", err)
	}
	if *export != "" {
		bound, err := mgr.ServePeers(*export)
		if err != nil {
			fail("exporting caches: %v", err)
		}
		fmt.Printf("vmicached: exporting published caches on %s\n", bound)
	}

	// Warm the requested bases concurrently; each warm singleflights
	// internally, and peer pulls race only against their own fallback.
	var wg sync.WaitGroup
	for _, base := range splitList(*warm) {
		wg.Add(1)
		go func(base string) {
			defer wg.Done()
			lease, err := mgr.Acquire(base)
			if err != nil {
				fmt.Fprintf(os.Stderr, "vmicached: warming %s: %v\n", base, err)
				return
			}
			fmt.Printf("vmicached: %s ready as %s\n", base, lease.Key())
			lease.Release()
		}(base)
	}
	wg.Wait()

	printStatus := func() {
		fmt.Printf("vmicached: status\n%s\n", indent(mgr.Stats().String()))
		// Fold the peer exporter's traffic (including per-image hit
		// counts) into the status output.
		if st, ok := mgr.ExportStats(); ok {
			fmt.Printf("  export: %s\n", strings.ReplaceAll(st.String(), "\n", "\n  "))
		}
	}

	var tick <-chan time.Time
	if *status > 0 {
		t := time.NewTicker(*status)
		defer t.Stop()
		tick = t.C
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	for {
		select {
		case <-tick:
			printStatus()
		case s := <-sig:
			fmt.Printf("vmicached: %v: draining (up to %v)\n", s, *drain)
			if err := mgr.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "vmicached: shutdown: %v\n", err)
			}
			client.Close() //nolint:errcheck // terminating anyway
			printStatus()
			return
		}
	}
}

// splitList parses a comma-separated flag into its non-empty elements.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseSize parses "1073741824", "1G", "512M", "64K".
func parseSize(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		mult, s = 1<<10, s[:len(s)-1]
	case 'm', 'M':
		mult, s = 1<<20, s[:len(s)-1]
	case 'g', 'G':
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	return n * mult, nil
}

// indent prefixes every line with two spaces.
func indent(s string) string {
	return "  " + strings.ReplaceAll(s, "\n", "\n  ")
}
