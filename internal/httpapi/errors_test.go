package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"microlink"
)

// TestMalformedBodies covers the JSON decoding error paths of the POST
// endpoints: truncated JSON, wrong top-level type, and empty bodies. All
// are 400 invalid_json in the structured envelope.
func TestMalformedBodies(t *testing.T) {
	s := testServer(t)
	for _, tc := range []struct{ path, body string }{
		{"/v1/tweet", "{not json"},
		{"/v1/tweet", `[1,2,3]`},
		{"/v1/tweet", ""},
		{"/v1/confirm", `{"tweet": "not-a-number"}`},
		{"/v1/confirm", "{"},
		{"/v1/confirm", ""},
		{"/v1/link/batch", `{"queries": "nope"}`},
		{"/v1/link/batch", ""},
	} {
		req := httptest.NewRequest("POST", tc.path, strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s body %q: status = %d, want 400", tc.path, tc.body, rec.Code)
		}
		var e ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error.Code != CodeInvalidJSON {
			t.Errorf("%s body %q: error body = %q", tc.path, tc.body, rec.Body.String())
		}
	}
}

// TestOutOfRangeIDs covers the 400-vs-404 split across every endpoint
// that takes an ID: malformed values are 400, well-formed IDs outside the
// world are 404 with unknown_user / unknown_entity.
func TestOutOfRangeIDs(t *testing.T) {
	s := testServer(t)
	users := sys.World.Graph.NumNodes()
	for _, tc := range []struct {
		path   string
		status int
		code   string
	}{
		{"/v1/link?user=" + strconv.Itoa(users) + "&mention=x", http.StatusNotFound, CodeUnknownUser},
		{"/v1/topk?user=-1&mention=x", http.StatusNotFound, CodeUnknownUser},
		{"/v1/topk?user=" + strconv.Itoa(users+5) + "&mention=x", http.StatusNotFound, CodeUnknownUser},
		{"/v1/search?user=-3&q=x", http.StatusNotFound, CodeUnknownUser},
		{"/v1/search?user=" + strconv.Itoa(users) + "&q=x", http.StatusNotFound, CodeUnknownUser},
		{"/v1/link?user=notanumber&mention=x", http.StatusBadRequest, CodeInvalidUser},
	} {
		decodeError(t, get(t, s, tc.path, nil), tc.status, tc.code)
	}
	for _, tc := range []struct {
		body any
		code string
	}{
		{TweetRequest{User: int32(users), Text: "x"}, CodeUnknownUser},
		{ConfirmRequest{User: 1, Entity: microlink.EntityID(sys.World.KB.NumEntities())}, CodeUnknownEntity},
		{ConfirmRequest{User: int32(users), Entity: 0}, CodeUnknownUser},
	} {
		b, _ := json.Marshal(tc.body)
		path := "/v1/tweet"
		if _, ok := tc.body.(ConfirmRequest); ok {
			path = "/v1/confirm"
		}
		req := httptest.NewRequest("POST", path, bytes.NewReader(b))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		decodeError(t, rec, http.StatusNotFound, tc.code)
	}
}

// TestBodyTooLarge: every POST route that decodes a body stops reading
// at MaxBodyBytes and answers 413 body_too_large, and a body just under
// the cap still decodes.
func TestBodyTooLarge(t *testing.T) {
	over := `{"pad":"` + strings.Repeat("a", MaxBodyBytes) + `"}`
	for _, tc := range []struct {
		path   string
		server func(*testing.T) *Server
	}{
		{"/v1/link/batch", testServer},
		{"/v1/tweet", testServer},
		{"/v1/confirm", testServer},
		{"/v1/ingest/tweet", ingestServer},
		{"/v1/ingest/follow", ingestServer},
	} {
		t.Run(strings.TrimPrefix(tc.path, "/"), func(t *testing.T) {
			rec := httptest.NewRecorder()
			tc.server(t).ServeHTTP(rec, httptest.NewRequest("POST", tc.path, strings.NewReader(over)))
			decodeError(t, rec, http.StatusRequestEntityTooLarge, CodeBodyTooLarge)
		})
	}
	under := `{"user":0,"text":"` + strings.Repeat(" ", MaxBodyBytes-64) + `"}`
	rec := httptest.NewRecorder()
	testServer(t).ServeHTTP(rec, httptest.NewRequest("POST", "/v1/tweet", strings.NewReader(under)))
	if rec.Code != http.StatusOK {
		t.Fatalf("body of %d bytes under the cap: status %d (%.200s)", len(under), rec.Code, rec.Body.String())
	}
}

// TestWrongMethods checks that each route rejects the other verb.
func TestWrongMethods(t *testing.T) {
	s := testServer(t)
	for _, tc := range []struct{ method, path string }{
		{"POST", "/healthz"},
		{"POST", "/v1/link"},
		{"GET", "/v1/link/batch"},
		{"POST", "/v1/topk"},
		{"POST", "/v1/search"},
		{"GET", "/v1/tweet"},
		{"GET", "/v1/confirm"},
		{"DELETE", "/v1/stats"},
	} {
		req := httptest.NewRequest(tc.method, tc.path, nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status = %d, want 405", tc.method, tc.path, rec.Code)
		}
	}
}

func TestUnknownRoute(t *testing.T) {
	s := testServer(t)
	if rec := get(t, s, "/v1/nope", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", rec.Code)
	}
}
