package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// readRecords loads a file written with -out: one run record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) would give. Fewer than two values
// have no spread.
func quartileSpread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median2(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// verdict compares the medians of two sets of runs of one metric on one
// workload. worse is by how much B's median is worse than A's, as a share
// of A's (negative: better).
func verdict(a, b []float64, higherIsBetter bool, bound float64) (worse float64, label string) {
	ma, mb := median2(a), median2(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if higherIsBetter {
			worse = -worse
		}
	}
	switch {
	case worse > bound:
		return worse, "worse"
	case max(quartileSpread(a), quartileSpread(b)) > bound:
		return worse, "unresolved" // the runs disagree among themselves by more than the bound
	default:
		return worse, "ok"
	}
}

// compareMain implements `bench compare A B`: one row per pairing of
// end-to-end metric and workload, B judged against A by the bound in
// BENCHMARK.json. Exit status 1 when any row is worse or when the same
// workload and seed gave different answers.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	bfPath := fs.String("benchmark", "BENCHMARK.json", "path to BENCHMARK.json")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-benchmark BENCHMARK.json] A.jsonl B.jsonl")
		return 2
	}
	bf, err := readBenchmarkFile(*bfPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 2
	}
	var sides [2][]record
	for i := range sides {
		if sides[i], err = readRecords(fs.Arg(i)); err != nil {
			fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
			return 2
		}
	}
	values := func(rs []record, workload, name string) []float64 {
		var out []float64
		for _, r := range rs {
			if m, ok := r.EndToEnd[name]; ok && r.Workload == workload {
				out = append(out, m.Value)
			}
		}
		return out
	}

	bad := 0
	fmt.Printf("%-16s %-22s %5s %14s %14s %8s %6s %8s %8s  %s\n",
		"workload", "metric", "runs", "median A", "median B", "worse", "bound", "spread A", "spread B", "verdict")
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			a, b := values(sides[0], w.Name, m.Name), values(sides[1], w.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			worse, label := verdict(a, b, m.Better == "higher", m.Bound)
			if label == "worse" {
				bad++
			}
			fmt.Printf("%-16s %-22s %2d/%-2d %14.4f %14.4f %+7.1f%% %5.0f%% %7.1f%% %7.1f%%  %s\n",
				w.Name, m.Name, len(a), len(b), median2(a), median2(b), 100*worse, 100*m.Bound,
				100*quartileSpread(a), 100*quartileSpread(b), label)
		}
	}

	type key struct {
		workload string
		seed     int64
		quick    bool
	}
	sums := map[key]string{}
	for _, r := range sides[0] {
		if r.AnswersSHA256 != "" {
			sums[key{r.Workload, r.Seed, r.Quick}] = r.AnswersSHA256
		}
	}
	for _, r := range sides[1] {
		if want, ok := sums[key{r.Workload, r.Seed, r.Quick}]; ok && r.AnswersSHA256 != "" && r.AnswersSHA256 != want {
			fmt.Printf("%-16s seed %d: answers_sha256 differs (%s vs %s)\n", r.Workload, r.Seed, want[:12], r.AnswersSHA256[:12])
			bad++
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
