package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestMetricsEndpoint scrapes GET /metrics and checks both that the body
// is valid Prometheus text exposition (every sample line parses) and that
// the catalogue promised by the observability subsystem is present:
// per-endpoint HTTP latency histograms and the linker's per-stage
// timings. /v1/stats taken just before the scrape reads the same
// per-endpoint counts as the exposition's _count lines.
func TestMetricsEndpoint(t *testing.T) {
	s := testServer(t)
	surface := ambiguousSurface(t)
	// Generate traffic so lazily created series exist.
	for i := 0; i < 3; i++ {
		get(t, s, "/v1/link?user=100&mention="+surface, nil)
	}
	get(t, s, "/v1/link?mention=nouser", nil) // a 4xx
	get(t, s, "/v1/topk?user=100&mention="+surface, nil)
	get(t, s, "/v1/search?user=100&q="+surface, nil)
	postBatch(t, s, BatchRequest{Queries: []BatchQuery{{User: 100, Mention: surface}}}, context.Background())
	postJSON(t, s, "/v1/tweet", TweetRequest{ID: 1, User: 100, Text: surface})
	var stats StatsResponse
	get(t, s, "/v1/stats", &stats)

	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	body := rec.Body.String()

	for _, want := range []string{
		`microlink_http_requests_total{endpoint="/v1/link",code="2xx"}`,
		`microlink_http_requests_total{endpoint="/v1/link",code="4xx"}`,
		`microlink_http_request_seconds_bucket{endpoint="/v1/link",le="+Inf"}`,
		`microlink_http_request_seconds_count{endpoint="/v1/link"}`,
		"microlink_http_in_flight_requests",
		`microlink_linker_stage_seconds_bucket{stage="candidate",le=`,
		`microlink_linker_stage_seconds_count{stage="candidate"}`,
		`microlink_linker_stage_seconds_count{stage="interest"}`,
		`microlink_linker_stage_seconds_count{stage="recency"}`,
		`microlink_linker_stage_seconds_count{stage="popularity"}`,
		"microlink_linker_link_seconds_count",
		"microlink_linker_mentions_total",
		`microlink_reach_queries_total{kind="closure"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	count := func(endpoint string) int64 {
		return int64(parseValue(t, body, `microlink_http_request_seconds_count{endpoint="`+endpoint+`"}`))
	}
	for _, c := range []struct {
		field string
		got   int64
		want  int64
	}{
		{"link_requests", stats.LinkRequests, count("/v1/link") + count("/v1/topk")},
		{"batch_requests", stats.BatchRequests, count("/v1/link/batch")},
		{"tweet_ingests", stats.TweetIngests, count("/v1/tweet")},
		{"searches", stats.Searches, count("/v1/search")},
	} {
		if c.got != c.want || c.got == 0 {
			t.Errorf("/v1/stats %s = %d, exposition _count lines sum to %d", c.field, c.got, c.want)
		}
	}

	// The stage histograms must have recorded at least the three scoring
	// calls above (the shared world means earlier tests may add more).
	if n := parseValue(t, body, `microlink_linker_stage_seconds_count{stage="interest"}`); n < 3 {
		t.Errorf("interest stage count = %v, want ≥ 3", n)
	}

	parseExposition(t, body)
}

// parseValue extracts the sample value for an exact series prefix.
func parseValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %q has unparseable value %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("series %q not found", series)
	return 0
}

// parseExposition validates the text format line by line: comments are
// HELP/TYPE, every other line is `name[{labels}] value` with quoted label
// values and a float value.
func parseExposition(t *testing.T, body string) {
	t.Helper()
	typed := map[string]string{}
	for ln, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				t.Fatalf("line %d: bad comment %q", ln+1, line)
			}
			if fields[1] == "TYPE" {
				typed[fields[2]] = fields[3]
			}
			continue
		}
		name := line
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				t.Fatalf("line %d: unbalanced braces %q", ln+1, line)
			}
			for _, pair := range strings.Split(line[i+1:j], `",`) {
				k, v, ok := strings.Cut(pair, "=")
				if !ok || k == "" || !strings.HasPrefix(v, `"`) {
					t.Fatalf("line %d: bad label %q", ln+1, pair)
				}
			}
			name = line[:i] + line[j+1:]
		}
		base, value, ok := strings.Cut(name, " ")
		if !ok {
			t.Fatalf("line %d: no value in %q", ln+1, line)
		}
		if value != "+Inf" {
			if _, err := strconv.ParseFloat(value, 64); err != nil {
				t.Fatalf("line %d: unparseable value %q", ln+1, value)
			}
		}
		// Histogram series must belong to a TYPE-declared histogram family.
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if fam := strings.TrimSuffix(base, suffix); fam != base {
				if typ, ok := typed[fam]; ok && typ != "histogram" {
					t.Fatalf("line %d: %s series on %s family", ln+1, suffix, typ)
				}
			}
		}
	}
	if len(typed) == 0 {
		t.Fatal("no TYPE comments in exposition")
	}
}

func TestMetricsMethodNotAllowed(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest("POST", "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", rec.Code)
	}
}

// TestFeedbackRace is the -race regression test for the interactive
// feedback path: writers hammer POST /v1/tweet with feedback enabled and
// POST /v1/confirm (both apply through the ingest pipeline, mutating the
// complemented KB and invalidating the influence cache through
// Linker.Feedback) while readers score the same entities through GET
// /v1/link and GET /v1/search. Before the linker
// held an RWMutex across the multi-substrate update, this interleaving
// raced on the influence cache contents vs the KB postings.
func TestFeedbackRace(t *testing.T) {
	s := ingestServer(t)
	surface := ambiguousIngestSurface(t)
	q := url.QueryEscape(surface)
	const workers, iters = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				body, _ := json.Marshal(TweetRequest{
					ID: int64(100000 + w*iters + i), User: int32(60 + w),
					Text: "race " + surface, Feedback: true,
				})
				req := httptest.NewRequest("POST", "/v1/tweet", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("tweet: status = %d", rec.Code)
					return
				}
				cb, _ := json.Marshal(ConfirmRequest{Tweet: int64(200000 + w*iters + i), User: int32(70 + w), Entity: 0})
				req = httptest.NewRequest("POST", "/v1/confirm", bytes.NewReader(cb))
				rec = httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("confirm: status = %d", rec.Code)
					return
				}
			}
		}(w)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/link?user="+strconv.Itoa(80+w)+"&mention="+q, nil))
				if rec.Code != http.StatusOK {
					t.Errorf("link: status = %d", rec.Code)
					return
				}
				rec = httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/search?user=90&q="+q, nil))
				if rec.Code != http.StatusOK {
					t.Errorf("search: status = %d", rec.Code)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
