package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"vmicache/internal/boot"
)

// quickConfig builds the daemons once and returns a -quick configuration
// whose logs and traces go to a test directory.
func quickConfig(t *testing.T, seed int64) *config {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	cfg := &config{root: root, outDir: t.TempDir(), seed: seed, quick: true}
	if cfg.binDir, cfg.buildS, err = buildDaemons(root); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stopAll)
	return cfg
}

// TestQuickPass runs every workload once at quick scale and checks the
// plumbing: outputs verified, intended path taken (runWorkload fails the run
// otherwise), traced self times summing to the op total, and every metric of
// BENCHMARK.json emitted exactly once with its unit.
func TestQuickPass(t *testing.T) {
	cfg := quickConfig(t, 1)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, def := range workloads {
		res, err := runWorkload(cfg, def, true)
		if err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
			t.Fatalf("%s: correct=%v failed=%d attempted=%d: %s", def.Name, res.Correct, res.Failed, res.Attempted, res.Err)
		}
		if cov := res.PerLayer["trace.coverage_pct"]; cov < 98 || cov > 102 {
			t.Errorf("%s: trace.coverage_pct = %v", def.Name, cov)
		}
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal(contractLine(res, trace), &line); err != nil {
				t.Fatal(err)
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", def.Name, trace, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := line.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit || !nameRE.MatchString(d.Name) {
					t.Errorf("%s trace=%d: metric %q missing, unnamed or without its unit %q: %+v", def.Name, trace, d.Name, d.Unit, m)
				}
				if trace == 0 && ok && m.Value != nil && *m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", def.Name, d.Name, *m.Value)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+def.Name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", def.Name, err)
		}
	}
}

// TestByteCountsRepeat: the byte-count metrics are exact, so two runs of one
// seed agree to the byte, and another seed's content moves the delta plane's
// wire bytes (chunk boundaries are content-defined).
func TestByteCountsRepeat(t *testing.T) {
	counts := func(seed int64, name string) (storage, net float64) {
		def, _ := workloadByName(name)
		res, err := runWorkload(quickConfig(t, seed), def, false)
		if err != nil || !res.Correct {
			t.Fatalf("%s seed %d: %v %+v", name, seed, err, res)
		}
		return res.EndToEnd["storage_bytes_per_op"], res.EndToEnd["net_bytes_per_op"]
	}
	for _, name := range []string{"cold_boot", "delta_update"} {
		s1, n1 := counts(1, name)
		s2, n2 := counts(1, name)
		if s1 != s2 || n1 != n2 {
			t.Errorf("%s: same seed, different byte counts: storage %v vs %v, net %v vs %v", name, s1, s2, n1, n2)
		}
	}
	_, n1 := counts(1, "delta_update")
	_, n2 := counts(2, "delta_update")
	if n1 == n2 {
		t.Errorf("delta_update: seeds 1 and 2 moved the same %v bytes; the seed does not reach the content", n1)
	}
}

// TestManifestMatchesBenchmarkJSON keeps BENCHMARK.json and the program's
// tables from drifting: the file is `go run -C bench ./e2e -manifest`.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the program's tables; regenerate it with `go run -C bench ./e2e -manifest > BENCHMARK.json`")
	}
}

// TestPatternFillMatchesPatternSource: the word-at-a-time generator the bases
// are built with is byte-identical to the oracle they are checked against.
func TestPatternFillMatchesPatternSource(t *testing.T) {
	const n = 1 << 20
	for _, c := range []imageContent{v1Content(n), v2Content(7, n)} {
		for _, off := range []int64{0, 4096, n/8*7 - 512, n - 4096} {
			got := make([]byte, 4096)
			if _, err := c.ReadAt(got, off); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, c.oracle(off, int64(len(got)))) {
				t.Errorf("content %+v diverges from boot.PatternSource at %d", c, off)
			}
		}
	}
	v1, v2 := v1Content(n), v2Content(7, n)
	if !bytes.Equal(v1.oracle(0, 512), v2.oracle(0, 512)) || bytes.Equal(v1.oracle(n-512, 512), v2.oracle(n-512, 512)) {
		t.Error("v2 must equal v1 outside its rewritten tail and differ inside it")
	}
	if want := (boot.PatternSource{Seed: seedV1, N: n}).At(100, 50); !bytes.Equal(v1.oracle(100, 50), want) {
		t.Error("oracle is not boot.PatternSource")
	}
}

// TestCompareVerdicts feeds -compare synthetic result files.
func TestCompareVerdicts(t *testing.T) {
	write := func(name string, opMs []float64) string {
		var rf resultFile
		for _, v := range opMs {
			e2e := map[string]float64{}
			for _, m := range endToEnd {
				e2e[m.Name] = 100
			}
			e2e["op_p50_ms"] = v
			rf.Runs = append(rf.Runs, result{Workload: "warm_boot", EndToEnd: e2e})
		}
		b, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := write("a.json", []float64{10, 10.1, 9.9, 10, 10.05})
	for _, tc := range []struct {
		name        string
		b           []float64
		verdict     string
		regressions int
	}{
		{"same", []float64{10.2, 10, 9.95, 10.1, 10}, "unchanged", 0},
		{"slower", []float64{13, 13.1, 12.9, 13, 13.2}, "REGRESSED", 1},
		{"faster", []float64{7, 7.1, 6.9, 7, 7.2}, "improved", 0},
		{"noisy", []float64{5, 10, 15, 8, 13}, "unresolved", 0},
	} {
		var out strings.Builder
		n, err := compare(steady, write(tc.name+".json", tc.b), &out)
		if err != nil {
			t.Fatal(err)
		}
		row := ""
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "warm_boot") && strings.Contains(line, "op_p50_ms") {
				row = line
			}
		}
		if n != tc.regressions || !strings.HasSuffix(strings.TrimSpace(row), tc.verdict) {
			t.Errorf("%s: %d regressions, row %q; want %d and verdict %s", tc.name, n, row, tc.regressions, tc.verdict)
		}
	}
}
