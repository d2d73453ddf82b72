package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// resultFile is what a full run writes to bench/out and -compare reads.
type resultFile struct {
	Env  environment `json:"env"`
	Runs []result    `json:"runs"`
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// values collects one end-to-end metric's readings over a file's runs of one
// workload.
func (rf *resultFile) values(workload, metric string) []float64 {
	var vs []float64
	for _, r := range rf.Runs {
		if v, ok := r.EndToEnd[metric]; ok && r.Workload == workload {
			vs = append(vs, v)
		}
	}
	return vs
}

// spread is the run-to-run spread of a sample: the distance between its
// quartiles as a share of its median (0 when fewer than four runs leave the
// quartiles undefined).
func spread(vs []float64) float64 {
	if len(vs) < 4 {
		return 0
	}
	if med := median(vs); med != 0 {
		return (quantile(vs, 0.75) - quantile(vs, 0.25)) / med
	}
	return 0
}

// compare applies the bounds of BENCHMARK.json (the endToEnd table it is
// generated from) to every (end-to-end metric, workload) pair of two result
// files — A the parent, B the change — and prints one row each. A pair whose
// run-to-run spread exceeds the bound is unresolved rather than unchanged,
// unless every run of one side beats every run of the other. It returns the
// number of regressions.
func compare(aPath, bPath string, w io.Writer) (int, error) {
	a, err := readResultFile(aPath)
	if err != nil {
		return 0, err
	}
	b, err := readResultFile(bPath)
	if err != nil {
		return 0, err
	}

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median (runs)\tB median (runs)\tB vs A\tbound\tverdict")
	regressions := 0
	for _, wl := range workloads {
		for _, m := range endToEnd {
			va, vb := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t%.2f\tmissing\n", wl.Name, m.Name, m.Bound)
				continue
			}
			ma, mb := median(va), median(vb)
			// worse > 0 means B is worse than A, as a share of A's median.
			worse := (mb - ma) / ma
			allBetter, allWorse := slices.Max(vb) < slices.Min(va), slices.Min(vb) > slices.Max(va)
			if m.Better == "higher" {
				worse = -worse
				allBetter, allWorse = allWorse, allBetter
			}
			verdict := "unchanged"
			switch noisy := max(spread(va), spread(vb)) > m.Bound; {
			case worse > m.Bound && (!noisy || allWorse):
				verdict = "REGRESSED"
				regressions++
			case worse < -m.Bound && (!noisy || allBetter):
				verdict = "improved"
			case noisy:
				verdict = "unresolved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s (%d)\t%.6g %s (%d)\t%+.2f%% of %.6g\t%.0f%%\t%s\n",
				wl.Name, m.Name, ma, m.Unit, len(va), mb, m.Unit, len(vb), 100*(mb-ma)/ma, ma, 100*m.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return regressions, err
	}
	return regressions, nil
}
