// Command benchjson converts `go test -bench` output into a JSON baseline and
// gates CI on performance regressions against a previous baseline.
//
// Usage:
//
//	go test -bench . -benchmem ./... | benchjson -out BENCH.json \
//	    -baseline BENCH.json -match WarmRead -max-regress 0.2
//
// The baseline is loaded into memory before -out is written, so the same path
// can serve as both: CI compares the fresh run against the committed file,
// then uploads the fresh file as the artifact for the next update.
//
// A regression is a benchmark present in both runs whose ns/op grew — or,
// for throughput benchmarks reporting MB/s in both runs, whose MB/s fell —
// by more than -max-regress (fraction) and whose name matches -match (all
// benchmarks when empty). Missing or new benchmarks never fail the gate.
//
// Custom b.ReportMetric units (e.g. "base-MB", "amplification") are captured
// into a metrics map; a second, independent gate compares one such metric:
//
//	-metric-bench SwarmFlashCrowd -metric storage-node-MB -metric-max-regress 0.1
//
// fails when the named metric grew by more than the fraction on any matching
// benchmark present in both runs.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`

	// Metrics holds custom b.ReportMetric values by unit name
	// ("amplification", "base-MB", ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// File is the JSON document benchjson reads and writes.
type File struct {
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "write the parsed results as JSON to this path")
	baseline := flag.String("baseline", "", "compare ns/op against this JSON baseline (missing file skips the gate)")
	match := flag.String("match", "", "regexp of benchmark names the regression gate applies to (empty = all)")
	maxRegress := flag.Float64("max-regress", 0.2, "maximum tolerated ns/op growth as a fraction")
	metricBench := flag.String("metric-bench", "", "regexp of benchmark names the custom-metric gate applies to (empty disables that gate)")
	metric := flag.String("metric", "", "custom metric unit the -metric-bench gate compares (e.g. base-MB)")
	metricMaxRegress := flag.Float64("metric-max-regress", 0.1, "maximum tolerated growth of -metric as a fraction")
	flag.Parse()

	var matchRe *regexp.Regexp
	if *match != "" {
		re, err := regexp.Compile(*match)
		if err != nil {
			fail("-match: %v", err)
		}
		matchRe = re
	}
	var metricRe *regexp.Regexp
	if *metricBench != "" {
		if *metric == "" {
			fail("-metric-bench needs -metric")
		}
		re, err := regexp.Compile(*metricBench)
		if err != nil {
			fail("-metric-bench: %v", err)
		}
		metricRe = re
	}

	// Load the baseline before writing -out: both flags may name one path.
	var base map[string]Benchmark
	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		switch {
		case os.IsNotExist(err):
			fmt.Fprintf(os.Stderr, "benchjson: no baseline at %s; gate skipped\n", *baseline)
		case err != nil:
			fail("%v", err)
		default:
			var bf File
			if err := json.Unmarshal(data, &bf); err != nil {
				fail("parsing baseline %s: %v", *baseline, err)
			}
			base = make(map[string]Benchmark, len(bf.Benchmarks))
			for _, b := range bf.Benchmarks {
				base[b.Name] = b
			}
		}
	}

	fresh := parse(os.Stdin)
	if len(fresh.Benchmarks) == 0 {
		fail("no benchmark lines on stdin")
	}

	if *out != "" {
		data, err := json.MarshalIndent(fresh, "", "  ")
		if err != nil {
			fail("%v", err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fail("%v", err)
		}
		fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(fresh.Benchmarks), *out)
	}

	if base == nil {
		return
	}
	regressed := false
	for _, b := range fresh.Benchmarks {
		old, ok := base[b.Name]
		if !ok || old.NsPerOp <= 0 {
			continue
		}
		if matchRe != nil && !matchRe.MatchString(b.Name) {
			continue
		}
		growth := b.NsPerOp/old.NsPerOp - 1
		status := "ok"
		if growth > *maxRegress {
			status = "REGRESSION"
			regressed = true
		}
		fmt.Printf("%-60s %12.1f -> %12.1f ns/op  %+6.1f%%  %s\n",
			b.Name, old.NsPerOp, b.NsPerOp, 100*growth, status)
		// Throughput benchmarks (b.SetBytes) also gate on MB/s: a drop
		// larger than -max-regress fails even if ns/op moved within
		// tolerance (larger IOs can hide a bandwidth regression behind a
		// similar op latency).
		if old.MBPerS > 0 && b.MBPerS > 0 {
			drop := 1 - b.MBPerS/old.MBPerS
			status = "ok"
			if drop > *maxRegress {
				status = "REGRESSION"
				regressed = true
			}
			fmt.Printf("%-60s %12.1f -> %12.1f MB/s   %+6.1f%%  %s\n",
				b.Name, old.MBPerS, b.MBPerS, 100*(b.MBPerS/old.MBPerS-1), status)
		}
	}
	if regressed {
		fail("ns/op or MB/s regressed more than %.0f%% against %s", 100**maxRegress, *baseline)
	}

	if metricRe == nil {
		return
	}
	metricRegressed := false
	for _, b := range fresh.Benchmarks {
		if !metricRe.MatchString(b.Name) {
			continue
		}
		old, ok := base[b.Name]
		if !ok {
			continue
		}
		oldV, okOld := old.Metrics[*metric]
		newV, okNew := b.Metrics[*metric]
		if !okOld || !okNew || oldV <= 0 {
			continue
		}
		growth := newV/oldV - 1
		status := "ok"
		if growth > *metricMaxRegress {
			status = "REGRESSION"
			metricRegressed = true
		}
		fmt.Printf("%-60s %12.3f -> %12.3f %s  %+6.1f%%  %s\n",
			b.Name, oldV, newV, *metric, 100*growth, status)
	}
	if metricRegressed {
		fail("%s regressed more than %.0f%% against %s", *metric, 100**metricMaxRegress, *baseline)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}

// parse extracts benchmark result lines ("BenchmarkX-4  N  12.3 ns/op ...")
// from a `go test -bench` stream, ignoring everything else.
func parse(f *os.File) File {
	var out File
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// name, iteration count, then value/unit pairs.
		if len(fields) < 4 {
			continue
		}
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			continue
		}
		b := Benchmark{Name: stripCPUSuffix(fields[0])}
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch fields[i+1] {
			case "ns/op":
				b.NsPerOp, seen = v, true
			case "MB/s":
				b.MBPerS = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			default:
				// A custom b.ReportMetric unit.
				if b.Metrics == nil {
					b.Metrics = make(map[string]float64)
				}
				b.Metrics[fields[i+1]] = v
			}
		}
		if seen {
			out.Benchmarks = append(out.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		fail("reading stdin: %v", err)
	}
	return out
}

// stripCPUSuffix removes the trailing "-<GOMAXPROCS>" go test appends to
// benchmark names, so baselines compare across machines with different core
// counts. Bench runs must pin -cpu (the Makefile and CI use -cpu 4): on a
// one-proc run go appends no suffix, and a subbenchmark legitimately ending
// in "-8" would be mangled.
func stripCPUSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}
