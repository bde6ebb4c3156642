// Command perfbench is the repository's wall-clock benchmark: it builds the
// traffic map from a simulated Internet, serves it over a loopback socket,
// and reports end-to-end and per-layer figures for one workload.
//
// Usage (from the repository root, normally through run.sh):
//
//	perfbench --workload refresh|browse|churn|all --seed N --seconds S --trace 0|1
//
// It prints every figure by name with its unit and sample count, then a
// last line holding one JSON object with the run's correctness and the
// figures BENCHMARK.json lists. It exits non-zero when a correctness
// check fails. See README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// outDir holds everything a run leaves behind: scratch WALs, span dumps
// and the untraced results tracing overhead is computed against.
const outDir = ".bench_build"

// benchmarkSpec is the part of BENCHMARK.json that picks which figures
// the result line carries.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name string `json:"name"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

func main() {
	workload := flag.String("workload", "", "refresh, browse, churn, or all")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer figures")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, traced bool) error {
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	keep := make([]string, 0)
	if traced {
		for _, m := range spec.PerLayer {
			keep = append(keep, m.Name)
		}
	} else {
		for _, m := range spec.EndToEnd {
			keep = append(keep, m.Name)
		}
	}
	workloads := []string{workload}
	if workload == "all" {
		workloads = []string{"refresh", "browse", "churn"}
	}
	failed := false
	for _, wl := range workloads {
		ok, err := runOne(wl, seed, seconds, traced, keep)
		if err != nil {
			return err
		}
		failed = failed || !ok
	}
	if failed {
		return fmt.Errorf("correctness checks failed")
	}
	return nil
}

// runOne runs one workload and prints its report. ok is false when a
// correctness check failed.
func runOne(workload string, seed int64, seconds float64, traced bool, keep []string) (bool, error) {
	dir := filepath.Join(outDir, "run-"+strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(dir)
	b := newBench(workload, seed, seconds, traced, dir)
	start := time.Now()
	if err := b.run(); err != nil {
		return false, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s ran %.1fs\n", workload, time.Since(start).Seconds())
	rp := b.report()
	name := fmt.Sprintf("%s-seed%d", workload, seed)
	results := filepath.Join(outDir, "results")
	if err := os.MkdirAll(results, 0o755); err != nil {
		return false, err
	}
	if traced {
		spansPath := filepath.Join(outDir, "traces", name+".jsonl")
		if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
			return false, err
		}
		if err := writeSpans(spansPath, b.tr.finished()); err != nil {
			return false, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", spansPath)
		rp.overhead(filepath.Join(results, name+".json"))
	} else if err := rp.save(filepath.Join(results, name+".json")); err != nil {
		return false, err
	}
	header := fmt.Sprintf("# perfbench workload=%s seed=%d seconds=%g trace=%v", workload, seed, seconds, traced)
	if err := rp.write(os.Stdout, header, b.res, traced, keep); err != nil {
		return false, err
	}
	return b.res.failed == 0, nil
}
