// Command rblockd exports a directory of image files over the remote block
// protocol — the storage node's role in the paper's deployments (the NFS
// export of §5).
//
// Usage:
//
//	rblockd [-addr HOST:PORT] [-dir DIR] [-rwsize N] [-ro] [-drain DUR]
//	        [-metrics-addr HOST:PORT] [-pprof-mutex-frac N]
//	        [-pprof-block-rate NS]
//
// Reads of read-only handles are served by sendfile(2) straight from the
// file (on Linux; elsewhere they are copied).
//
// On SIGINT/SIGTERM the server shuts down gracefully: it stops accepting new
// connections, drains in-flight requests up to -drain, prints its traffic
// counters (including the per-image breakdown), and exits.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vmicache/internal/backend"
	"vmicache/internal/metrics"
	"vmicache/internal/rblock"
)

func main() {
	fs := flag.NewFlagSet("rblockd", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:10809", "listen address")
	dir := fs.String("dir", ".", "directory to export")
	rwsize := fs.Int("rwsize", rblock.DefaultRWSize, "maximum write segment (the paper tunes NFS to 64 KiB); reads go in vectored requests of up to 1 MiB")
	ro := fs.Bool("ro", false, "export read-only")
	drain := fs.Duration("drain", 5*time.Second, "graceful-shutdown drain deadline")
	metricsAddr := fs.String("metrics-addr", "", "observability address (/metrics, /metrics.json, /debug/pprof); empty disables")
	mutexFrac := fs.Int("pprof-mutex-frac", 0, "mutex contention sampling fraction (runtime.SetMutexProfileFraction); 0 disables")
	blockRate := fs.Int("pprof-block-rate", 0, "blocking-event sampling rate in ns (runtime.SetBlockProfileRate); 0 disables")
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError
	metrics.SetProfileRates(*mutexFrac, *blockRate)

	store, err := backend.NewDirStore(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rblockd: %v\n", err)
		os.Exit(1)
	}
	srv := rblock.NewServer(store, rblock.ServerOpts{
		RWSize:   *rwsize,
		ReadOnly: *ro,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if *metricsAddr != "" {
		reg := metrics.NewRegistry()
		srv.RegisterMetrics(reg, nil)
		msrv, err := metrics.ListenAndServe(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rblockd: -metrics-addr %s: %v\n", *metricsAddr, err)
			os.Exit(1)
		}
		defer msrv.Close() //nolint:errcheck // terminating anyway
		fmt.Printf("rblockd: metrics on http://%s/metrics\n", msrv.Addr())
	}
	bound, err := srv.ListenAndLog(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rblockd: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("rblockd: exporting %s on %s (rwsize=%d, ro=%v)\n", *dir, bound, *rwsize, *ro)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("rblockd: %v: draining (up to %v)\n", s, *drain)
	if err := srv.Shutdown(*drain); err != nil {
		fmt.Fprintf(os.Stderr, "rblockd: shutdown: %v\n", err)
	}
	fmt.Printf("rblockd: %s\n", srv.Stats())
}
