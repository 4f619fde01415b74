package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"microlink"
	"microlink/internal/reach"
)

// run is one workload run in progress.
type run struct {
	sc      scale
	seed    int64
	seconds int
	e2e     bool // measure and report the end-to-end metrics (tracing off)
	traced  bool // add the traced replay and report the per-layer metrics
	outDir  string

	rec *record
	bed *bed
}

// workloads maps each name in BENCHMARK.json to its body.
var workloads = map[string]func(*run) error{
	"link-single":    (*run).linkSingle,
	"link-batch":     (*run).linkBatch,
	"firehose-mixed": (*run).firehoseMixed,
	"restart":        (*run).restart,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// dur is a share of the run's measured seconds.
func (r *run) dur(share float64) time.Duration {
	return time.Duration(share * float64(r.seconds) * float64(time.Second))
}

// warmUp is the stretch at the head of a load phase whose samples are
// discarded: connections dial, the heap reaches its working size, lazy
// caches (influential-user sets) fill.
func (r *run) warmUp() time.Duration { return min(time.Second, r.dur(0.125)) }

// execute sets the system up, runs the workload body and fills in the
// metrics every workload shares.
func execute(name string, r *run) (*record, error) {
	body, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
	}
	r.rec = newRecord(name, r.seed, r.seconds, r.sc.quick)
	for _, m := range perLayerCatalogue {
		r.rec.layer(m.name, 0, m.unit) // a layer the workload never enters reports 0
	}

	var err error
	if r.e2e {
		var setupS, heap float64
		if r.bed, setupS, heap, err = setUpMeasured(r.sc); err != nil {
			return nil, err
		}
		r.rec.e2e("setup_s", setupS, "s")
		r.rec.e2e("heap_after_setup_mb", heap, "MB")
	}
	if r.traced {
		if r.bed != nil { // both modes in one process: trade the plain bed for a step-timed one
			if err := r.bed.close(); err != nil {
				return nil, err
			}
		}
		var bt buildTimes
		if r.bed, err = setUp(r.sc, &bt); err != nil {
			return nil, err
		}
		r.rec.layer("synth.generate_ms", ms(bt.generate), "ms")
		r.rec.layer("candidate.index_build_ms", ms(bt.candIndex), "ms")
		r.rec.layer("recency.propnet_build_ms", ms(bt.propNet), "ms")
		r.rec.layer("reach.twohop_build_ms", ms(bt.twoHop), "ms")
		r.rec.layer("reach.closure_build_ms", ms(bt.reachTotal-bt.twoHop), "ms")
		r.rec.layer("reach.index_mb", float64(r.bed.sys.Reach.SizeBytes())/(1<<20), "MB")
	}
	defer func() {
		if r.bed != nil { // restart lets go of its first system early
			if err := r.bed.close(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: closing the server: %v\n", err)
			}
		}
	}()
	if r.e2e {
		r.rec.e2e("link_accuracy", r.bed.accuracy(r.sc), "share")
	}

	if err := body(r); err != nil {
		return nil, err
	}
	if !r.e2e {
		r.rec.EndToEnd = nil
	}
	if !r.traced {
		r.rec.PerLayer = nil
	}
	r.rec.check("no_failed_operations", r.rec.Failed == 0, "%d of %d operations failed", r.rec.Failed, r.rec.Attempted)
	return r.rec, nil
}

// streaming digs the streaming reach substrate out from under the
// metrics wrapper Build puts around it.
func streaming(sys *microlink.System) (*reach.Streaming, error) {
	idx := sys.Reach
	if x, ok := idx.(*reach.Instrumented); ok {
		idx = x.Unwrap()
	}
	st, ok := idx.(*reach.Streaming)
	if !ok {
		return nil, fmt.Errorf("reach substrate is %T, want *reach.Streaming", idx)
	}
	return st, nil
}

// reconcile prints how an end-to-end mean splits into layers; the last
// row is whatever the parts do not explain.
func reconcile(title string, total float64, unit string, parts []part) float64 {
	rest := total
	fmt.Printf("  reconciliation: %s = %.1f %s\n", title, total, unit)
	for _, p := range parts {
		fmt.Printf("    %-28s %12.1f %s\n", p.name, p.v, unit)
		rest -= p.v
	}
	fmt.Printf("    %-28s %12.1f %s\n", "unaccounted", rest, unit)
	return rest
}

type part struct {
	name string
	v    float64
}
