// Command rblockd exports a directory of image files, read-only, over the
// remote block protocol — the storage node's role in the paper's deployments
// (the NFS export of §5). A client may open only names inside the directory
// (symlinks the directory's owner placed there are followed).
//
// Usage:
//
//	rblockd [-addr HOST:PORT] [-dir DIR] [-drain DUR] [-metrics-addr HOST:PORT]
//
// Reads of 64 KiB and more are served by sendfile(2) straight from the file
// (on Linux; elsewhere they are copied).
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
	drain := fs.Duration("drain", 5*time.Second, "graceful-shutdown drain deadline")
	metricsAddr := fs.String("metrics-addr", "", "observability address (/metrics, /metrics.json, /debug/pprof); empty disables")
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError

	store, err := backend.NewDirStore(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rblockd: %v\n", err)
		os.Exit(1)
	}
	srv := rblock.NewServer(store, rblock.ServerOpts{
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
	bound, err := srv.Listen(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rblockd: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("rblockd: exporting %s on %s (read-only)\n", *dir, bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("rblockd: %v: draining (up to %v)\n", s, *drain)
	if err := srv.Shutdown(*drain); err != nil {
		fmt.Fprintf(os.Stderr, "rblockd: shutdown: %v\n", err)
	}
	fmt.Printf("rblockd: %s\n", srv.Stats())
}
