package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"sync"
	"testing"

	"microlink"
)

var (
	once sync.Once
	sys  *microlink.System
)

func testServer(t *testing.T) *Server {
	t.Helper()
	once.Do(func() {
		w := microlink.Generate(microlink.WorldParams{
			Seed: 5, Users: 400, Topics: 6, EntitiesPerTopic: 10, Days: 20,
		})
		sys = microlink.Build(w, microlink.Options{TruthComplement: true})
	})
	return New(sys, WithLogger(func(string, ...any) {}))
}

// i64 builds the optional timestamp fields of the POST bodies.
func i64(v int64) *int64 { return &v }

// decodeError asserts an error-envelope response with the given status and
// code.
func decodeError(t *testing.T, rec *httptest.ResponseRecorder, status int, code string) {
	t.Helper()
	if rec.Code != status {
		t.Errorf("status = %d, want %d (%s)", rec.Code, status, rec.Body.String())
	}
	var e ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("error envelope does not parse: %v (%s)", err, rec.Body.String())
	}
	if e.Error.Code != code {
		t.Errorf("error code = %q, want %q (%s)", e.Error.Code, code, rec.Body.String())
	}
	if e.Error.Message == "" {
		t.Errorf("error message empty: %s", rec.Body.String())
	}
}

func get(t *testing.T, s *Server, path string, out any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decode %s: %v (%s)", path, err, rec.Body.String())
		}
	}
	return rec
}

func ambiguousSurface(t *testing.T) string {
	t.Helper()
	var surface string
	sys.World.KB.EachSurface(func(form string, cs []microlink.EntityID) {
		if surface == "" && len(cs) >= 2 {
			surface = form
		}
	})
	if surface == "" {
		t.Fatal("no ambiguous surface")
	}
	return surface
}

func TestHealthz(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
}

func TestLinkEndpoint(t *testing.T) {
	s := testServer(t)
	surface := ambiguousSurface(t)
	var resp LinkResponse
	rec := get(t, s, "/v1/link?user=100&mention="+surface, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if len(resp.Candidates) < 2 {
		t.Fatalf("candidates = %+v", resp.Candidates)
	}
	for i := 1; i < len(resp.Candidates); i++ {
		if resp.Candidates[i].Score > resp.Candidates[i-1].Score {
			t.Fatal("candidates not sorted by score")
		}
	}
	if resp.Candidates[0].Name == "" || resp.Candidates[0].Category == "" {
		t.Fatalf("missing entity metadata: %+v", resp.Candidates[0])
	}
}

func TestLinkValidation(t *testing.T) {
	s := testServer(t)
	for _, tc := range []struct {
		path   string
		status int
		code   string
	}{
		{"/v1/link?mention=x", http.StatusBadRequest, CodeInvalidUser}, // no user
		{"/v1/link?user=-1&mention=x", http.StatusNotFound, CodeUnknownUser},
		{"/v1/link?user=999999&mention=x", http.StatusNotFound, CodeUnknownUser},
		{"/v1/link?user=1", http.StatusBadRequest, CodeMissingMention}, // no mention
	} {
		decodeError(t, get(t, s, tc.path, nil), tc.status, tc.code)
	}
}

func TestTopKEndpoint(t *testing.T) {
	s := testServer(t)
	surface := ambiguousSurface(t)
	var resp TopKResponse
	rec := get(t, s, "/v1/topk?user=100&k=2&mention="+surface, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if len(resp.Top) > 2 {
		t.Fatalf("k=2 returned %d", len(resp.Top))
	}
	// Unknown mention: not flagged as new entity (no candidates at all).
	var resp2 TopKResponse
	get(t, s, "/v1/topk?user=100&mention=zzzzzzzz", &resp2)
	if resp2.NewEntityLikely {
		t.Fatal("unknown surface must not be flagged new-entity")
	}
}

func TestTweetEndpoint(t *testing.T) {
	s := testServer(t)
	// Build a text containing a known surface.
	surface := ambiguousSurface(t)
	body, _ := json.Marshal(TweetRequest{ID: 9999, User: 50, Text: "talking about " + surface + " today"})
	req := httptest.NewRequest("POST", "/v1/tweet", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp TweetResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range resp.Mentions {
		if m.Surface == surface && m.Entity != microlink.NoEntity {
			found = true
		}
	}
	if !found {
		t.Fatalf("mention %q not linked: %+v", surface, resp.Mentions)
	}
}

func TestTweetFeedback(t *testing.T) {
	s := ingestServer(t)
	surface := ambiguousIngestSurface(t)
	before := ingestSys.CKB.TotalCount()
	rec := postJSON(t, s, "/v1/tweet", TweetRequest{ID: 10000, User: 51, Text: surface, Feedback: true})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ingestSys.CKB.TotalCount() <= before {
		t.Fatal("feedback did not append postings")
	}
}

// TestFeedbackTweetSearchable: a fed-back tweet joins the live corpus
// with its postings, so a search that returns one of them shows the
// tweet's text. (The handler once linked and fed back by itself and
// never appended the tweet, so search answered it with empty text.)
func TestFeedbackTweetSearchable(t *testing.T) {
	s := ingestServer(t)
	user, surface := linkableIngestMention(t)
	const id = 777001
	text := "searchable " + surface + " feedback"
	rec := postJSON(t, s, "/v1/tweet", TweetRequest{ID: id, User: int32(user), Text: text, Feedback: true})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp SearchResponse
	if rec := get(t, s, fmt.Sprintf("/v1/search?user=%d&k=1&limit=100000&q=%s", user, url.QueryEscape(surface)), &resp); rec.Code != http.StatusOK {
		t.Fatalf("search status = %d", rec.Code)
	}
	for _, r := range resp.Results {
		if r.Tweet == id {
			if r.Text != text {
				t.Fatalf("search answers tweet %d with text %q, want %q", id, r.Text, text)
			}
			return
		}
	}
	t.Fatalf("search for %q as user %d does not return tweet %d: %+v", surface, user, id, resp.Results)
}

// TestUnstoredTweetSearchableWithoutText replays the read-only tweet
// case: a /v1/tweet without feedback stores nothing, so a later confirm
// of it posts a searchable link to a tweet the server has no text for,
// and the search result carries no text key (not "text":"").
func TestUnstoredTweetSearchableWithoutText(t *testing.T) {
	s := ingestServer(t)
	user, surface := linkableIngestMention(t)
	const id = 666001
	rec := postJSON(t, s, "/v1/tweet", TweetRequest{ID: id, User: int32(user), Text: "read-only " + surface})
	if rec.Code != http.StatusOK {
		t.Fatalf("tweet status = %d: %s", rec.Code, rec.Body.String())
	}
	top := ingestSys.Linker.TopK(user, ingestSys.World.Horizon(), surface, 1)
	rec = postJSON(t, s, "/v1/confirm", ConfirmRequest{Tweet: id, User: int32(user), Entity: top[0].Entity})
	if rec.Code != http.StatusOK {
		t.Fatalf("confirm status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Results []map[string]json.RawMessage `json:"results"`
	}
	if rec := get(t, s, fmt.Sprintf("/v1/search?user=%d&k=1&limit=100000&q=%s", user, url.QueryEscape(surface)), &resp); rec.Code != http.StatusOK {
		t.Fatalf("search status = %d", rec.Code)
	}
	for _, r := range resp.Results {
		if string(r["tweet"]) != fmt.Sprint(id) {
			continue
		}
		if text, ok := r["text"]; ok {
			t.Fatalf("search answers unstored tweet %d with text %s, want no text key", id, text)
		}
		return
	}
	t.Fatalf("search for %q as user %d does not return tweet %d", surface, user, id)
}

// linkableIngestMention finds a user and a surface whose top-1 clears
// the new-entity threshold on the ingest fixture, so a tweet of that
// user mentioning it links to the entity a search for it returns.
func linkableIngestMention(t *testing.T) (microlink.UserID, string) {
	t.Helper()
	ingestServer(t)
	var surfaces []string
	ingestSys.World.KB.EachSurface(func(form string, cs []microlink.EntityID) {
		if len(cs) >= 2 {
			surfaces = append(surfaces, form)
		}
	})
	sort.Strings(surfaces)
	now := ingestSys.World.Horizon()
	for u := microlink.UserID(0); u < microlink.UserID(ingestSys.World.Graph.NumNodes()); u += 7 {
		for _, sf := range surfaces {
			if len(ingestSys.Linker.TopK(u, now, sf, 1)) == 1 {
				return u, sf
			}
		}
	}
	t.Fatal("no user has a linkable ambiguous mention")
	return 0, ""
}

// TestWritesWithoutPipeline: with no ingest pipeline attached, the two
// interactive writes answer 503 ingest_disabled, as /v1/ingest/* do,
// and change nothing; a tweet without feedback still links.
func TestWritesWithoutPipeline(t *testing.T) {
	s := testServer(t)
	before := sys.CKB.TotalCount()
	rec := postJSON(t, s, "/v1/confirm", ConfirmRequest{Tweet: 1, User: 10, Entity: 0})
	decodeError(t, rec, http.StatusServiceUnavailable, CodeIngestDisabled)
	surface := ambiguousSurface(t)
	rec = postJSON(t, s, "/v1/tweet", TweetRequest{ID: 2, User: 10, Text: surface, Feedback: true})
	decodeError(t, rec, http.StatusServiceUnavailable, CodeIngestDisabled)
	if rec := postJSON(t, s, "/v1/tweet", TweetRequest{ID: 3, User: 10, Text: surface}); rec.Code != http.StatusOK {
		t.Fatalf("tweet without feedback: status = %d", rec.Code)
	}
	if got := sys.CKB.TotalCount(); got != before || sys.Live.Len() != 0 {
		t.Fatalf("refused writes changed state: postings %d → %d, live %d", before, got, sys.Live.Len())
	}
}

// TestAcknowledgedWritesSurviveReopen: a confirm and a feedback tweet
// answered 200 by a server bound to a data directory are in the WAL, so
// the directory reopens with both postings and the tweet's text — no
// snapshot and no pipeline drain in between. Once the WAL is closed the
// same confirm is a 500: an answer is never sent for an unjournaled
// write.
func TestAcknowledgedWritesSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	w := microlink.Generate(microlink.WorldParams{Seed: 7, Users: 200, Topics: 4, EntitiesPerTopic: 8, Days: 10})
	live := microlink.Build(w, microlink.Options{Reach: microlink.ReachStreaming, TruthComplement: true})
	if _, err := live.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	pipe, err := live.StartIngest(microlink.IngestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := pipe.Close(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	s := New(live, WithLogger(func(string, ...any) {}))
	surface := ""
	w.KB.EachSurface(func(form string, cs []microlink.EntityID) {
		if surface == "" || form < surface {
			surface = form
		}
	})
	const confirmID, tweetID = 900001, 900002
	text := "durable " + surface
	if rec := postJSON(t, s, "/v1/confirm", ConfirmRequest{Tweet: confirmID, User: 10, Entity: 3}); rec.Code != http.StatusOK {
		t.Fatalf("confirm: status = %d: %s", rec.Code, rec.Body.String())
	}
	rec := postJSON(t, s, "/v1/tweet", TweetRequest{ID: tweetID, User: 11, Text: text, Feedback: true})
	var resp TweetResponse
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil || len(resp.Mentions) == 0 || resp.Mentions[0].Entity == microlink.NoEntity {
		t.Fatalf("feedback tweet: status = %d, body %s; want a linked mention", rec.Code, rec.Body.String())
	}
	linked := resp.Mentions[0].Entity
	if err := live.ClosePersist(); err != nil {
		t.Fatal(err)
	}
	rec = postJSON(t, s, "/v1/confirm", ConfirmRequest{Tweet: confirmID + 10, User: 10, Entity: 3})
	decodeError(t, rec, http.StatusInternalServerError, CodeInternal)

	reopened, _, err := microlink.Open(dir, microlink.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := reopened.ClosePersist(); err != nil {
			t.Error(err)
		}
	}()
	has := func(e microlink.EntityID, id int64) bool {
		for _, p := range reopened.CKB.Postings(e) {
			if p.Tweet == id {
				return true
			}
		}
		return false
	}
	if !has(3, confirmID) || !has(linked, tweetID) {
		t.Fatalf("reopened postings: confirm %v, feedback tweet %v; want both", has(3, confirmID), has(linked, tweetID))
	}
	if has(3, confirmID+10) {
		t.Fatal("the confirm answered 500 is in the reopened directory")
	}
	if got := reopened.Live.All(); len(got) != 1 || got[0].ID != tweetID || got[0].Text != text {
		t.Fatalf("reopened live corpus = %+v, want tweet %d with text %q", got, tweetID, text)
	}
}

func TestTweetValidation(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest("POST", "/v1/tweet", strings.NewReader("{not json"))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	decodeError(t, rec, http.StatusBadRequest, CodeInvalidJSON)

	body, _ := json.Marshal(TweetRequest{User: -5, Text: "x"})
	req = httptest.NewRequest("POST", "/v1/tweet", bytes.NewReader(body))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	decodeError(t, rec, http.StatusNotFound, CodeUnknownUser)
}

// TestTimeZeroNotConflatedWithUnset is the regression test for the *int64
// Time fields: an explicit epoch-0 timestamp must reach the substrate as
// 0, while an absent field defaults to the world horizon. Before the
// pointer switch both decoded to int64(0) and were rewritten to the
// horizon.
func TestTimeZeroNotConflatedWithUnset(t *testing.T) {
	s := ingestServer(t)
	post := func(req ConfirmRequest) {
		t.Helper()
		b, _ := json.Marshal(req)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/confirm", bytes.NewReader(b)))
		if rec.Code != http.StatusOK {
			t.Fatalf("confirm %+v: status = %d: %s", req, rec.Code, rec.Body.String())
		}
	}
	byTweet := func(id int64) microlink.Posting {
		t.Helper()
		for _, p := range ingestSys.CKB.Postings(1) {
			if p.Tweet == id {
				return p
			}
		}
		t.Fatalf("posting for tweet %d not found", id)
		return microlink.Posting{}
	}

	post(ConfirmRequest{Tweet: 31337, User: 10, Time: i64(0), Entity: 1})
	if p := byTweet(31337); p.Time != 0 {
		t.Fatalf("explicit time=0 stored as %d (conflated with unset)", p.Time)
	}
	post(ConfirmRequest{Tweet: 31338, User: 10, Entity: 1})
	if p := byTweet(31338); p.Time != ingestSys.World.Horizon() {
		t.Fatalf("unset time stored as %d, want horizon %d", p.Time, ingestSys.World.Horizon())
	}
}

// TestLoggerInjection is the regression test for the double-logging bug:
// the injected logger must see exactly one line per request (ServeHTTP
// used to log unconditionally on top of the caller's own logging).
func TestLoggerInjection(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	s := New(sys, WithLogger(func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}))
	get(t, s, "/healthz", nil)
	get(t, s, "/v1/stats", nil)
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 2 {
		t.Fatalf("logger saw %d lines for 2 requests: %q", len(lines), lines)
	}
	if !strings.Contains(lines[0], "/healthz") || !strings.Contains(lines[1], "/v1/stats") {
		t.Fatalf("unexpected log lines: %q", lines)
	}
}

func TestConfirmEndpoint(t *testing.T) {
	s := ingestServer(t)
	before := ingestSys.CKB.Count(0)
	body, _ := json.Marshal(ConfirmRequest{Tweet: 777, User: 10, Time: i64(500), Entity: 0})
	req := httptest.NewRequest("POST", "/v1/confirm", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if ingestSys.CKB.Count(0) != before+1 {
		t.Fatal("confirm did not complement the KB")
	}
	// Unknown IDs are 404 with the matching code.
	for _, tc := range []struct {
		bad  ConfirmRequest
		code string
	}{
		{ConfirmRequest{User: -1, Entity: 0}, CodeUnknownUser},
		{ConfirmRequest{User: 1, Entity: -2}, CodeUnknownEntity},
		{ConfirmRequest{User: 1, Entity: 1 << 30}, CodeUnknownEntity},
	} {
		b, _ := json.Marshal(tc.bad)
		req := httptest.NewRequest("POST", "/v1/confirm", bytes.NewReader(b))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		decodeError(t, rec, http.StatusNotFound, tc.code)
	}
}

func TestSearchEndpoint(t *testing.T) {
	s := testServer(t)
	surface := ambiguousSurface(t)
	var resp SearchResponse
	rec := get(t, s, "/v1/search?user=100&limit=5&q="+surface, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if len(resp.Results) == 0 {
		t.Skip("no results for this user; acceptable for a below-threshold user")
	}
	if len(resp.Results) > 5 {
		t.Fatalf("limit ignored: %d results", len(resp.Results))
	}
	for i := 1; i < len(resp.Results); i++ {
		if resp.Results[i].Time > resp.Results[i-1].Time {
			t.Fatal("results not newest-first")
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	s := testServer(t)
	get(t, s, "/v1/link?user=100&mention=x", nil) // count something
	var resp StatsResponse
	rec := get(t, s, "/v1/stats", &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if resp.Users == 0 || resp.Entities == 0 {
		t.Fatalf("stats = %+v", resp)
	}
	if resp.LinkRequests == 0 {
		t.Fatal("link counter not incremented")
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest("POST", "/v1/link?user=1&mention=x", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", rec.Code)
	}
}
