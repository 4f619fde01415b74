// Command bench is the repository's benchmark: one seeded harness that
// builds the linking system, serves it over real HTTP on loopback, drives
// it with pre-generated traffic, checks the answers and reports named
// metrics — end to end with tracing off, layer by layer from a traced
// replay. See README.md for the metric catalogue and how to make a claim
// with it; BENCHMARK.json at the repository root is the contract.
//
// Usage:
//
//	bench [run] [-workload W|all] [-seed N] [-seconds N] [-trace 0|1|both] [-quick] [-out F]
//	bench compare [-benchmark BENCHMARK.json] A.jsonl B.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "compare" {
		os.Exit(compareMain(args[1:]))
	}
	if len(args) > 0 && args[0] == "run" {
		args = args[1:]
	}
	os.Exit(runMain(args))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: all, or one of the names in BENCHMARK.json")
	seed := fs.Int64("seed", 42, "seed for the world (stream and request seeds derive from it)")
	seconds := fs.Int("seconds", 8, "measured seconds per run")
	trace := fs.String("trace", "both", "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run; both")
	quick := fs.Bool("quick", false, "300-user world: a smoke run whose numbers mean nothing")
	out := fs.String("out", "", "append each run's full record to this file, one JSON object per line")
	outDir := fs.String("outdir", filepath.Join("bench", "out"), "directory for traces and scratch data")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != "0" && *trace != "1" && *trace != "both") || fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be ≥ 1, -trace one of 0, 1, both, and no positional arguments")
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames()
	}
	code := 0
	for _, name := range names {
		sc := fullScale()
		if *quick {
			sc = quickScale()
		}
		r := &run{sc: sc, seed: *seed, seconds: *seconds, e2e: *trace != "1", traced: *trace != "0", outDir: *outDir}
		rec, err := execute(name, r)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		rec.print(os.Stdout)
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
		}
		metrics := map[string]metric{}
		for k, v := range rec.EndToEnd {
			metrics[k] = v
		}
		for k, v := range rec.PerLayer {
			metrics[k] = v
		}
		fmt.Println(rec.driverLine(metrics))
		if !rec.Correct {
			code = 1
		}
	}
	return code
}
