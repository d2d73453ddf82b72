// Command e2e is the repository's benchmark: it builds the real rblockd and
// vmicached, runs them as separate processes on loopback, plays the compute
// node itself with an in-process cachemgr.Manager, and replays the paper's
// CentOS boot profile through Manager.Boot sessions. It reports the paper's
// two axes — time to boot and bytes leaving the storage node — end to end,
// and a per-layer budget taken from outside the layers (public functions,
// public seams, Stats() and /metrics.json deltas). See bench/README.md.
//
// Usage (from the checkout root):
//
//	go run -C bench ./e2e                         every workload, both passes, writes bench/out/result.json
//	go run -C bench ./e2e -workload cold_boot -seed 7 -seconds 10 -trace 0
//	go run -C bench ./e2e -compare A.json B.json  apply BENCHMARK.json's bounds to two result files
//	go run -C bench ./e2e -manifest               print BENCHMARK.json from the program's tables
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	workload := flag.String("workload", "", "run one workload (default: all five)")
	seed := flag.Int64("seed", 1, "content seed of the generated images")
	seconds := flag.Float64("seconds", 15, "measured wall-clock per workload, after a discarded warm-up")
	trace := flag.Int("trace", -1, "0: end-to-end metrics only; 1: also the traced pass and probes; -1: both, printed together")
	runs := flag.Int("runs", 1, "complete runs (fresh set-up each) per workload")
	quick := flag.Bool("quick", false, "64 MiB base and one measured op per workload: checks the plumbing, measures nothing")
	outPath := flag.String("out", "", "result file (default bench/out/result.json)")
	doCompare := flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	doManifest := flag.Bool("manifest", false, "print BENCHMARK.json as the program's tables define it")
	flag.Parse()

	if *doManifest {
		b, err := manifest()
		if err != nil {
			return fail(err)
		}
		os.Stdout.Write(b) //nolint:errcheck // stdout
		return 0
	}
	if *doCompare {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		regressions, err := compare(flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			return fail(err)
		}
		if regressions > 0 {
			return 1
		}
		return 0
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}

	defs := workloads
	if *workload != "" {
		def, ok := workloadByName(*workload)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *workload))
		}
		defs = []workloadDef{def}
	}
	cfg := &config{root: root, outDir: filepath.Join(root, "bench", "out"), seed: *seed, seconds: *seconds, quick: *quick}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return fail(err)
	}
	if cfg.binDir, cfg.buildS, err = buildDaemons(root); err != nil {
		return fail(err)
	}

	// A signal must not leave daemons behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(130)
	}()

	file := resultFile{Env: recordEnvironment(cfg)}
	status := 0
	for _, def := range defs {
		for i := 0; i < *runs; i++ {
			res, err := runWorkload(cfg, def, *trace != 0)
			if err != nil {
				stopAll()
				return fail(err)
			}
			file.Runs = append(file.Runs, *res)
			printResult(res, *trace)
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "e2e: %s: %s\n", def.Name, res.Err)
				status = 1
			}
		}
	}
	if *workload == "" || *outPath != "" {
		path := *outPath
		if path == "" {
			path = filepath.Join(cfg.outDir, "result.json")
		}
		b, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			return fail(err)
		}
		fmt.Printf("result file: %s\n", path)
	}
	if *workload != "" {
		// The driver's contract: the last line of a one-workload run is one
		// JSON object holding the end-to-end metrics (-trace 0) or the
		// per-layer metrics (-trace 1).
		fmt.Println(string(contractLine(&file.Runs[len(file.Runs)-1], *trace)))
	}
	return status
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
	return 2
}

// printResult prints every metric by name with its unit.
func printResult(res *result, trace int) {
	fmt.Printf("== %s: %d ops, %d clients, %d failed", res.Workload, res.Samples, res.Clients, res.Failed)
	if res.HighPct > 0 {
		fmt.Printf(", p%.1f = %.3f ms", res.HighPct, res.HighMs)
	}
	fmt.Println()
	if trace != 1 {
		for _, m := range endToEnd {
			fmt.Printf("%-14s %-36s %14.6g %s\n", res.Workload, m.Name, res.EndToEnd[m.Name], m.Unit)
		}
	}
	for _, m := range perLayer {
		if v, ok := res.PerLayer[m.Name]; ok {
			fmt.Printf("%-14s %-36s %14.6g %s\n", res.Workload, m.Name, v, m.Unit)
		}
	}
}

// contractLine renders a one-workload run for the driver: -trace 1 reports
// the per-layer metrics, anything else the end-to-end ones.
func contractLine(res *result, trace int) []byte {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, values := endToEnd, res.EndToEnd
	if trace == 1 {
		defs, values = perLayer, res.PerLayer
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metric{}}
	for _, d := range defs {
		line.Metrics[d.Name] = metric{values[d.Name], d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // a struct of numbers and strings always marshals
	}
	return b
}
