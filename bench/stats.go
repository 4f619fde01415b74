package main

import (
	"math"
	"sort"
	"time"
)

// percentileLadder is the set of percentiles the harness reports tails
// at; supportedPercentile picks from it.
var percentileLadder = []float64{50, 75, 90, 95, 99, 99.9}

// supportedPercentile returns the highest percentile of the ladder that
// still has at least ten of n samples beyond it — a tail read off fewer
// samples is an anecdote, not a percentile. Below 20 samples only the
// median qualifies.
func supportedPercentile(n int) float64 {
	best := percentileLadder[0]
	for _, p := range percentileLadder {
		if float64(n)*(100-p) >= 10*100-1e-6 {
			best = p
		}
	}
	return best
}

// percentile reads the p-th percentile (nearest rank) off an ascending
// slice; an empty slice reads 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// dist summarises one timed quantity: count, mean, median and the
// highest percentile the sample supports.
type dist struct {
	N     int     `json:"n"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	Tail  float64 `json:"tail"`
	TailP float64 `json:"tail_percentile"`

	sorted []float64
}

func summarize(vals []float64) dist {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	d := dist{N: len(s), sorted: s}
	if len(s) == 0 {
		return d
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	d.Mean = sum / float64(len(s))
	d.P50 = percentile(s, 50)
	d.TailP = supportedPercentile(len(s))
	d.Tail = percentile(s, d.TailP)
	return d
}

// at reads an arbitrary percentile off the summarised sample.
func (d dist) at(p float64) float64 { return percentile(d.sorted, p) }

func mean(vals []float64) float64 { return summarize(vals).Mean }

// level is one observation of a quantity that holds its value until the
// next observation (queue depth, staleness).
type level struct {
	at time.Duration // offset from the start of the phase
	v  float64
}

// integrate returns ∫v dt in value·seconds over a sample-and-hold
// series. With v a population (events queued, edges not yet served) and N
// arrivals over the same interval, Little's law gives the mean time one
// arrival spends in that population as integrate(series)/N — without
// stamping a single event.
func integrate(series []level) float64 {
	var area float64
	for i := 0; i+1 < len(series); i++ {
		area += series[i].v * (series[i+1].at - series[i].at).Seconds()
	}
	return area
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
