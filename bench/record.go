package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metric is one named, unit-carrying number — the shape the driver reads.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phase is the sent/succeeded/failed ledger of one stretch of a run.
type phase struct {
	Name      string  `json:"name"`
	Seconds   float64 `json:"seconds"`
	Sent      int     `json:"sent"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	Samples   int     `json:"samples"` // latencies behind the phase's percentiles
}

// check is one correctness assertion made by the run itself.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// record is everything one workload run produced: what the driver reads
// (Correct, Attempted, Failed, and the metric maps) plus the run's
// provenance.
type record struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Quick      bool   `json:"quick,omitempty"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"GOMAXPROCS"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`

	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`

	Phases        []phase         `json:"phases"`
	Checks        []check         `json:"checks"`
	AnswersSHA256 string          `json:"answers_sha256,omitempty"`
	AnswersHashed int             `json:"answers_hashed,omitempty"`
	Dists         map[string]dist `json:"distributions,omitempty"`
}

func newRecord(workload string, seed int64, seconds int, quick bool) *record {
	return &record{
		Workload: workload, Seed: seed, Seconds: seconds, Quick: quick,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
		Correct:  true,
		EndToEnd: map[string]metric{}, PerLayer: map[string]metric{}, Dists: map[string]dist{},
	}
}

// commit reads the revision the toolchain stamped into the binary; a
// checkout that is not a git repository has none.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func (r *record) e2e(name string, v float64, unit string) { r.EndToEnd[name] = metric{v, unit} }

func (r *record) layer(name string, v float64, unit string) { r.PerLayer[name] = metric{v, unit} }

// layerDist records a timed layer call: the mean is the metric, the whole
// distribution goes into the run record and the printed table.
func (r *record) layerDist(name string, vals []float64, unit string) {
	d := summarize(vals)
	r.Dists[name] = d
	r.layer(name, d.Mean, unit)
}

func (r *record) addPhase(name string, seconds float64, okN, failN, samples int) {
	r.Phases = append(r.Phases, phase{name, seconds, okN + failN, okN, failN, samples})
	r.Attempted += okN + failN
	r.Failed += failN
}

func (r *record) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
		r.Correct = false
	}
	r.Checks = append(r.Checks, c)
}

// answerHash folds response bodies, in request order, into one digest:
// the same code on the same seed must produce the same answers.
type answerHash struct{ sums [][sha256.Size]byte }

func newAnswerHash(n int) *answerHash { return &answerHash{sums: make([][sha256.Size]byte, n)} }

// put is safe from several goroutines as long as each index has one writer.
func (a *answerHash) put(i int, body []byte) {
	if i < len(a.sums) {
		a.sums[i] = sha256.Sum256(body)
	}
}

func (a *answerHash) sum() string {
	h := sha256.New()
	for _, s := range a.sums {
		h.Write(s[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// driverLine is the one-line JSON object the driver parses off the end of
// standard output.
func (r *record) driverLine(metrics map[string]metric) string {
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // a map of floats and strings always marshals
	}
	return string(b)
}

// print writes every metric by name with its unit, the phase ledger and
// the checks.
func (r *record) print(w io.Writer) {
	fmt.Fprintf(w, "== %s  seed=%d seconds=%d cpus=%d GOMAXPROCS=%d %s commit=%s\n",
		r.Workload, r.Seed, r.Seconds, r.NumCPU, r.GOMAXPROCS, r.GoVersion, r.Commit)
	for _, p := range r.Phases {
		fmt.Fprintf(w, "  phase %-22s %7.2fs  sent %6d  ok %6d  failed %4d  samples %6d\n",
			p.Name, p.Seconds, p.Sent, p.Succeeded, p.Failed, p.Samples)
	}
	printMetrics(w, "end-to-end", r.EndToEnd, nil)
	printMetrics(w, "per-layer", r.PerLayer, r.Dists)
	for _, c := range r.Checks {
		state := "ok"
		if !c.OK {
			state = "FAILED: " + c.Detail
		}
		fmt.Fprintf(w, "  check %-28s %s\n", c.Name, state)
	}
	if r.AnswersSHA256 != "" {
		fmt.Fprintf(w, "  answers_sha256 %s over %d answers\n", r.AnswersSHA256, r.AnswersHashed)
	}
}

func printMetrics(w io.Writer, title string, ms map[string]metric, dists map[string]dist) {
	if len(ms) == 0 {
		return
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %s metrics\n", title)
	for _, n := range names {
		line := fmt.Sprintf("    %-36s %14.4f %-6s", n, ms[n].Value, ms[n].Unit)
		if d, ok := dists[n]; ok && d.N > 0 {
			line += fmt.Sprintf("  n=%d mean=%.3f p50=%.3f", d.N, d.Mean, d.P50)
			if d.TailP > 50 {
				line += fmt.Sprintf(" p%g=%.3f", d.TailP, d.Tail)
			}
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}

// appendRecord appends r as one JSON line to path.
func appendRecord(path string, r *record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(r)
	if err == nil {
		_, err = f.Write(append(b, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
