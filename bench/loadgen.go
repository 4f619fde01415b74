package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// conn is one client connection: its transport is capped at a single
// keep-alive socket, so "two clients" means two sockets and no more.
type conn struct {
	base string
	hc   *http.Client
}

func newConn(base string) *conn {
	return &conn{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
	}}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do issues one request and reads the whole body; status 0 reports a
// transport failure.
func (c *conn) do(method, path string, body []byte) (int, []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, out
}

// sample is one operation of a load phase. Offsets are from the phase
// start; an open loop fills due, a closed loop leaves it equal to sent.
type sample struct {
	index int
	due   time.Duration
	sent  time.Duration
	done  time.Duration
	ok    bool
}

// latencyMS is what the user waited: from when the request was due, not
// from when the generator got round to sending it.
func (s sample) latencyMS() float64 { return ms(s.done - s.due) }

func (s sample) lateMS() float64 { return ms(s.sent - s.due) }

// openLoop issues op(lane, i) for i in [0, n) on a fixed schedule of rate
// operations per second, operation i being due at i/rate. The schedule is
// dealt round-robin to `lanes` goroutines (one per connection); a lane
// sends synchronously, so a stalled reply delays the lane's next sends —
// and because latency runs from the due time, that wait is charged to the
// requests that suffered it instead of silently thinning the load.
func openLoop(rate float64, n, lanes int, op func(lane, i int) bool) []sample {
	out := make([]sample, n)
	start := time.Now()
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lane; i < n; i += lanes {
				due := time.Duration(float64(i) / rate * float64(time.Second))
				if wait := due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				ok := op(lane, i)
				out[i] = sample{index: i, due: due, sent: sent, done: time.Since(start), ok: ok}
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop runs `lanes` clients that each send their next operation as
// soon as the previous one completes, until the duration has elapsed.
// Lane l issues indices l, l+lanes, l+2·lanes, ….
func closedLoop(d time.Duration, lanes int, op func(lane, i int) bool) ([]sample, time.Duration) {
	per := make([][]sample, lanes)
	start := time.Now()
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lane; time.Since(start) < d; i += lanes {
				sent := time.Since(start)
				ok := op(lane, i)
				per[lane] = append(per[lane], sample{index: i, due: sent, sent: sent, done: time.Since(start), ok: ok})
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out, wall
}

// steadyRate is a closed loop's completion rate per second: the phase is
// cut into slices, each slice's successful completions are counted, and
// the median slice is the answer. A collector cycle or a noisy neighbour
// that slows a few slices does not move it; weight scales the count
// (mentions per batch).
func steadyRate(samples []sample, wall, slice time.Duration, weight int) float64 {
	n := int(wall / slice) // whole slices only: the ragged tail is dropped
	if n < 1 {
		n, slice = 1, wall
	}
	counts := make([]float64, n)
	for _, s := range samples {
		if i := int(s.done / slice); s.ok && i < n {
			counts[i] += float64(weight) / slice.Seconds()
		}
	}
	return median2(counts)
}

// tally counts a phase's outcomes and collects the latencies of the
// operations that succeeded.
func tally(samples []sample) (okN, failN int, lat, late []float64) {
	for _, s := range samples {
		if !s.ok {
			failN++
			continue
		}
		okN++
		lat = append(lat, s.latencyMS())
		late = append(late, s.lateMS())
	}
	return
}
