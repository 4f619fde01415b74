package obs

import (
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("test_temp", "temp")
	g.Set(2.5)
	g.Add(1.5)
	g.Dec()
	if g.Value() != 3 {
		t.Fatalf("gauge = %v, want 3", g.Value())
	}
}

func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_total", "")
	b := r.Counter("test_total", "")
	if a != b {
		t.Fatal("same name must return the same counter")
	}
	v1 := r.CounterVec("test_labelled_total", "", "kind")
	v2 := r.CounterVec("test_labelled_total", "", "kind")
	v1.With("x").Inc()
	if v2.With("x").Value() != 1 {
		t.Fatal("vec children must be shared across lookups")
	}
}

func TestRegistryTypeCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering as a gauge must panic")
		}
	}()
	r.Gauge("test_total", "")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name must panic")
		}
	}()
	r.Counter("9bad-name", "")
}

func TestNilSafety(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var cv *CounterVec
	var hv *HistogramVec
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.ObserveSince(time.Now())
	cv.With("x").Inc()
	hv.With("x").Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil metrics must read zero")
	}
	if s := h.Snapshot(); s.Quantile(0.5) != 0 {
		t.Fatal("nil histogram snapshot must quantile to 0")
	}
	var r *Registry
	r.Counter("x_total", "").Inc()
	r.CounterVec("x_total", "", "k").With("a").Inc()
	r.Gauge("x", "").Set(1)
	r.GaugeVec("x", "", "k").With("a").Set(1)
	r.Histogram("x_seconds", "", nil).Observe(1)
	r.HistogramVec("x_seconds", "", nil, "k").With("a").Observe(1)
	if r.Counter("x_total", "") != nil || r.HistogramVec("x_seconds", "", nil, "k").Snapshots() != nil {
		t.Fatal("a nil registry must hand out nil instruments")
	}
	sw := StartStopwatch(nil)
	sw.Stage("a") // must not panic
	if d := StartSpan(nil).Stop(); d < 0 {
		t.Fatal("nil span must still measure")
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "")
	g := r.Gauge("test_g", "")
	h := r.Histogram("test_seconds", "", nil)
	vec := r.CounterVec("test_kinds_total", "", "kind")
	var wg sync.WaitGroup
	const workers, perWorker = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			kind := string(rune('a' + w%3))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.001)
				vec.With(kind).Inc()
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*perWorker {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*perWorker)
	}
	if g.Value() != workers*perWorker {
		t.Fatalf("gauge = %v, want %d", g.Value(), workers*perWorker)
	}
	if h.Count() != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
	var total uint64
	for _, k := range []string{"a", "b", "c"} {
		total += vec.With(k).Value()
	}
	if total != workers*perWorker {
		t.Fatalf("vec total = %d, want %d", total, workers*perWorker)
	}
}

func TestStopwatchStages(t *testing.T) {
	r := NewRegistry()
	vec := r.HistogramVec("test_stage_seconds", "", nil, "stage")
	sw := StartStopwatch(vec)
	time.Sleep(time.Millisecond)
	d1 := sw.Stage("first")
	d2 := sw.Stage("second")
	if d1 < time.Millisecond {
		t.Fatalf("first stage = %v, want ≥ 1ms", d1)
	}
	if d2 > d1 {
		t.Fatalf("second stage (%v) should be ~instant, first was %v", d2, d1)
	}
	snaps := vec.Snapshots()
	if snaps["first"].Count != 1 || snaps["second"].Count != 1 {
		t.Fatalf("snapshots = %+v", snaps)
	}
}

func TestSpan(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_span_seconds", "", nil)
	sp := StartSpan(h)
	time.Sleep(time.Millisecond)
	d := sp.Stop()
	if d < time.Millisecond {
		t.Fatalf("span = %v, want ≥ 1ms", d)
	}
	if h.Count() != 1 || h.Sum() < 0.001 {
		t.Fatalf("count=%d sum=%v", h.Count(), h.Sum())
	}
}
