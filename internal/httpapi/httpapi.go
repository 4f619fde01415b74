// Package httpapi exposes the online-inference module (§3.2.2) over HTTP:
// per-mention linking (single and batched), top-k with the new-entity
// threshold, raw-tweet ingestion with NER and optional feedback,
// personalized microblog search, and Prometheus metrics. The cmd/linkd
// binary mounts this API; the package keeps the handlers testable without
// a socket.
//
// # Errors
//
// Every error response carries a structured envelope,
//
//	{"error": {"code": "unknown_user", "message": "user 9000 out of range"}}
//
// with a machine-readable code from the catalogue below. Malformed input
// (unparseable JSON, non-numeric or missing parameters) is 400; references
// to IDs outside the world (users, entities) are 404.
//
//	invalid_json       400  request body is not valid JSON
//	body_too_large     413  request body exceeds MaxBodyBytes
//	invalid_user       400  user parameter missing or not an integer
//	missing_mention    400  mention parameter/field missing or empty
//	missing_query      400  q parameter missing or empty
//	empty_batch        400  batch request carries no queries
//	batch_too_large    400  batch request exceeds MaxBatchQueries
//	unknown_user       404  user ID outside the world
//	unknown_entity     404  entity ID outside the knowledgebase
//	ingest_disabled    503  no ingest pipeline attached (/v1/ingest/*, /v1/confirm, feedback tweets)
//	queue_full         503  ingest queue full; shed by backpressure, retry later
//	persistence_disabled 503  no data directory bound (start linkd with -data)
//	snapshot_failed    500  snapshot commit failed (disk error, etc.)
//	deadline_exceeded  504  request (or batch item) deadline expired
//	canceled           499  request context canceled mid-flight
//	internal           500  unexpected failure
//
// The deadline_exceeded and canceled codes also appear per item in batch
// responses, where the HTTP status stays 200 and failures are isolated to
// the items they hit.
//
// # Deadlines
//
// Handlers propagate the request context into the scoring pipeline
// (core.ScoreCandidatesCtx and friends), so server-side timeouts and
// client disconnects cancel in-flight scoring instead of burning CPU on
// an answer nobody will read.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"log"
	"net/http"
	"strconv"
	"time"

	"microlink"
	"microlink/internal/obs"
)

// Error codes returned in the error envelope. See the package
// documentation for the status each maps to.
const (
	CodeInvalidJSON         = "invalid_json"
	CodeBodyTooLarge        = "body_too_large"
	CodeInvalidUser         = "invalid_user"
	CodeMissingMention      = "missing_mention"
	CodeMissingQuery        = "missing_query"
	CodeEmptyBatch          = "empty_batch"
	CodeBatchTooLarge       = "batch_too_large"
	CodeUnknownUser         = "unknown_user"
	CodeUnknownEntity       = "unknown_entity"
	CodeIngestDisabled      = "ingest_disabled"
	CodeQueueFull           = "queue_full"
	CodePersistenceDisabled = "persistence_disabled"
	CodeSnapshotFailed      = "snapshot_failed"
	CodeDeadlineExceeded    = "deadline_exceeded"
	CodeCanceled            = "canceled"
	CodeInternal            = "internal"
)

// MaxBatchQueries caps the number of queries one /v1/link/batch request
// may carry; larger batches are rejected with batch_too_large.
const MaxBatchQueries = 256

// MaxBodyBytes caps the request body of every endpoint that decodes one;
// a larger body is rejected with body_too_large before it is fully read. A full
// batch of MaxBatchQueries queries is a few tens of kilobytes.
const MaxBodyBytes = 1 << 20

// StatusClientClosedRequest is the (nginx-conventional) status reported
// when the client goes away mid-request; net/http cannot actually deliver
// it, but it keeps the metrics honest.
const StatusClientClosedRequest = 499

// Server wires the linking system into an http.Handler. Every endpoint is
// wrapped with the obs HTTP middleware, recording per-endpoint request
// counts by status class, an in-flight gauge, and latency histograms into
// the system's metrics registry; GET /metrics exposes the registry in
// Prometheus text format.
type Server struct {
	sys  *microlink.System
	mux  *http.ServeMux
	logf func(format string, args ...any)

	started time.Time
	mw      *obs.HTTPMetrics // the middleware's instruments; /v1/stats reads its counts
}

// Option customises a Server.
type Option func(*Server)

// WithLogger replaces the request/error logger (default log.Printf). Pass
// a no-op to silence the server, e.g. under `go test`.
func WithLogger(logf func(format string, args ...any)) Option {
	return func(s *Server) { s.logf = logf }
}

// New returns a Server over sys.
func New(sys *microlink.System, opts ...Option) *Server {
	s := &Server{sys: sys, mux: http.NewServeMux(), logf: log.Printf, started: time.Now()}
	for _, opt := range opts {
		opt(s)
	}
	s.mw = obs.NewHTTPMetrics(sys.Metrics, "microlink")
	handle := func(pattern, endpoint string, h http.HandlerFunc) {
		s.mux.Handle(pattern, s.mw.WrapFunc(endpoint, h))
	}
	handle("GET /healthz", "/healthz", s.handleHealth)
	handle("GET /v1/link", "/v1/link", s.handleLink)
	handle("POST /v1/link/batch", "/v1/link/batch", s.handleLinkBatch)
	handle("GET /v1/topk", "/v1/topk", s.handleTopK)
	handle("GET /v1/search", "/v1/search", s.handleSearch)
	handle("POST /v1/tweet", "/v1/tweet", s.handleTweet)
	handle("POST /v1/confirm", "/v1/confirm", s.handleConfirm)
	handle("POST /v1/ingest/tweet", "/v1/ingest/tweet", s.handleIngestTweet)
	handle("POST /v1/ingest/follow", "/v1/ingest/follow", s.handleIngestFollow)
	handle("GET /v1/stats", "/v1/stats", s.handleStats)
	handle("POST /v1/admin/snapshot", "/v1/admin/snapshot", s.handleSnapshot)
	handle("GET /v1/admin/status", "/v1/admin/status", s.handleAdminStatus)
	s.mux.Handle("GET /metrics", sys.Metrics.Handler())
	return s
}

// ServeHTTP implements http.Handler with request logging through the
// injectable logger (the obs middleware separately records metrics).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.mux.ServeHTTP(w, r)
	s.logf("%s %s %v", r.Method, r.URL.Path, time.Since(start))
}

// ErrorInfo is the machine-readable payload of the error envelope.
type ErrorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorBody is the uniform error envelope: {"error":{"code":...,"message":...}}.
type ErrorBody struct {
	Error ErrorInfo `json:"error"`
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.logf("httpapi: encode response: %v", err)
	}
}

// writeError emits the structured error envelope.
func (s *Server) writeError(w http.ResponseWriter, status int, code, msg string) {
	s.writeJSON(w, status, ErrorBody{Error: ErrorInfo{Code: code, Message: msg}})
}

// apiErr is a deferred writeError: parse/validation helpers return it so
// handlers decide uniformly whether to fail the request or one batch item.
type apiErr struct {
	status int
	code   string
	msg    string
}

func (e *apiErr) send(s *Server, w http.ResponseWriter) {
	s.writeError(w, e.status, e.code, e.msg)
}

// decodeBody decodes r's JSON body, read through http.MaxBytesReader,
// into v. On failure it writes the error — 413 body_too_large past
// MaxBodyBytes, else 400 invalid_json — and returns false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		s.writeError(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
			"request body exceeds "+strconv.Itoa(MaxBodyBytes)+" bytes")
	default:
		s.writeError(w, http.StatusBadRequest, CodeInvalidJSON, "invalid JSON: "+err.Error())
	}
	return false
}

// ctxErrInfo maps a context error onto the catalogue.
func ctxErrInfo(err error) (int, ErrorInfo) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, ErrorInfo{Code: CodeDeadlineExceeded, Message: "deadline exceeded while scoring"}
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest, ErrorInfo{Code: CodeCanceled, Message: "request canceled"}
	default:
		return http.StatusInternalServerError, ErrorInfo{Code: CodeInternal, Message: err.Error()}
	}
}

// validateUser range-checks an already-parsed user ID.
func (s *Server) validateUser(u int64) *apiErr {
	if u < 0 || u >= int64(s.sys.World.Graph.NumNodes()) {
		return &apiErr{http.StatusNotFound, CodeUnknownUser,
			"user " + strconv.FormatInt(u, 10) + " out of range"}
	}
	return nil
}

// parseUser extracts and validates the user query parameter: 400 for a
// missing or non-numeric value, 404 for an out-of-range ID.
func (s *Server) parseUser(r *http.Request) (microlink.UserID, *apiErr) {
	raw := r.URL.Query().Get("user")
	u, err := strconv.ParseInt(raw, 10, 32)
	if err != nil {
		return 0, &apiErr{http.StatusBadRequest, CodeInvalidUser,
			"user parameter missing or not an integer: " + strconv.Quote(raw)}
	}
	if e := s.validateUser(u); e != nil {
		return 0, e
	}
	return microlink.UserID(u), nil
}

// parseNow extracts the optional now parameter, defaulting to the world
// horizon.
func (s *Server) parseNow(r *http.Request) int64 {
	if v := r.URL.Query().Get("now"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return s.sys.World.Horizon()
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// ScoredEntity is the JSON form of one ranked candidate.
type ScoredEntity struct {
	Entity     microlink.EntityID `json:"entity"`
	Name       string             `json:"name"`
	Category   string             `json:"category"`
	Score      float64            `json:"score"`
	Interest   float64            `json:"interest"`
	Recency    float64            `json:"recency"`
	Popularity float64            `json:"popularity"`
}

func (s *Server) scoredJSON(in []microlink.Scored) []ScoredEntity {
	out := make([]ScoredEntity, len(in))
	for i, sc := range in {
		e := s.sys.World.KB.Entity(sc.Entity)
		out[i] = ScoredEntity{
			Entity:     sc.Entity,
			Name:       e.Name,
			Category:   e.Category.String(),
			Score:      sc.Score,
			Interest:   sc.Interest,
			Recency:    sc.Recency,
			Popularity: sc.Popularity,
		}
	}
	return out
}

// LinkResponse is the body of /v1/link.
type LinkResponse struct {
	Mention    string         `json:"mention"`
	Candidates []ScoredEntity `json:"candidates"`
}

func (s *Server) handleLink(w http.ResponseWriter, r *http.Request) {
	user, aerr := s.parseUser(r)
	if aerr != nil {
		aerr.send(s, w)
		return
	}
	mention := r.URL.Query().Get("mention")
	if mention == "" {
		s.writeError(w, http.StatusBadRequest, CodeMissingMention, "missing mention parameter")
		return
	}
	scored, err := s.sys.Linker.ScoreCandidatesCtx(r.Context(), user, s.parseNow(r), mention)
	if err != nil {
		status, info := ctxErrInfo(err)
		s.writeError(w, status, info.Code, info.Message)
		return
	}
	s.writeJSON(w, http.StatusOK, LinkResponse{Mention: mention, Candidates: s.scoredJSON(scored)})
}

// BatchQuery is one query of POST /v1/link/batch. A missing now defaults
// to the world horizon ("link it as of right now").
type BatchQuery struct {
	User    int32  `json:"user"`
	Now     *int64 `json:"now,omitempty"`
	Mention string `json:"mention"`
}

// BatchRequest is the body of POST /v1/link/batch.
type BatchRequest struct {
	Queries []BatchQuery `json:"queries"`
}

// BatchItem is the outcome of one batch query, in request order. Exactly
// one of Candidates or Error is populated; Entity is the best candidate
// (-1 when unlinkable or failed).
type BatchItem struct {
	Mention    string             `json:"mention"`
	Entity     microlink.EntityID `json:"entity"`
	Candidates []ScoredEntity     `json:"candidates,omitempty"`
	Error      *ErrorInfo         `json:"error,omitempty"`
}

// BatchResponse is the body of POST /v1/link/batch. Linked counts the
// items that scored successfully; failures stay per-item.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
	Linked  int         `json:"linked"`
	Failed  int         `json:"failed"`
}

func (s *Server) handleLinkBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		s.writeError(w, http.StatusBadRequest, CodeEmptyBatch, "batch carries no queries")
		return
	}
	if len(req.Queries) > MaxBatchQueries {
		s.writeError(w, http.StatusBadRequest, CodeBatchTooLarge,
			"batch of "+strconv.Itoa(len(req.Queries))+" queries exceeds the cap of "+strconv.Itoa(MaxBatchQueries))
		return
	}

	resp := BatchResponse{Results: make([]BatchItem, len(req.Queries))}
	// Validate items first so malformed ones fail without occupying the
	// scoring pool; valid ones are forwarded to LinkBatch positionally.
	queries := make([]microlink.MentionQuery, 0, len(req.Queries))
	forward := make([]int, 0, len(req.Queries)) // queries[j] scores Results[forward[j]]
	for i, q := range req.Queries {
		resp.Results[i] = BatchItem{Mention: q.Mention, Entity: microlink.NoEntity}
		if aerr := s.validateUser(int64(q.User)); aerr != nil {
			resp.Results[i].Error = &ErrorInfo{Code: aerr.code, Message: aerr.msg}
			continue
		}
		if q.Mention == "" {
			resp.Results[i].Error = &ErrorInfo{Code: CodeMissingMention, Message: "missing mention field"}
			continue
		}
		now := s.sys.World.Horizon()
		if q.Now != nil {
			now = *q.Now
		}
		queries = append(queries, microlink.MentionQuery{
			User: microlink.UserID(q.User), Now: now, Surface: q.Mention,
		})
		forward = append(forward, i)
	}

	for j, br := range s.sys.Linker.LinkBatch(r.Context(), queries) {
		item := &resp.Results[forward[j]]
		if br.Err != nil {
			_, info := ctxErrInfo(br.Err)
			item.Error = &info
			continue
		}
		item.Entity = br.Entity
		item.Candidates = s.scoredJSON(br.Scored)
	}
	for _, item := range resp.Results {
		if item.Error != nil {
			resp.Failed++
		} else {
			resp.Linked++
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// TopKResponse is the body of /v1/topk. NewEntityLikely reports the
// Appendix D signal: no candidate cleared the β+γ threshold.
type TopKResponse struct {
	Mention         string         `json:"mention"`
	Top             []ScoredEntity `json:"top"`
	NewEntityLikely bool           `json:"new_entity_likely"`
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	user, aerr := s.parseUser(r)
	if aerr != nil {
		aerr.send(s, w)
		return
	}
	mention := r.URL.Query().Get("mention")
	if mention == "" {
		s.writeError(w, http.StatusBadRequest, CodeMissingMention, "missing mention parameter")
		return
	}
	k, err := strconv.Atoi(r.URL.Query().Get("k"))
	if err != nil || k <= 0 {
		k = 3
	}
	top, err := s.sys.Linker.TopKCtx(r.Context(), user, s.parseNow(r), mention, k)
	if err != nil {
		status, info := ctxErrInfo(err)
		s.writeError(w, status, info.Code, info.Message)
		return
	}
	s.writeJSON(w, http.StatusOK, TopKResponse{
		Mention:         mention,
		Top:             s.scoredJSON(top),
		NewEntityLikely: len(top) == 0 && len(s.sys.Candidates.Candidates(mention)) > 0,
	})
}

// TweetRequest is the body of POST /v1/tweet: a raw tweet to ingest. Time
// is a pointer so that an explicit epoch-0 timestamp is distinguishable
// from an absent field (which defaults to the world horizon).
type TweetRequest struct {
	ID       int64  `json:"id"`
	User     int32  `json:"user"`
	Time     *int64 `json:"time,omitempty"`
	Text     string `json:"text"`
	Feedback bool   `json:"feedback"` // append confirmed links to the KB
}

// TweetMention is one extracted and linked mention.
type TweetMention struct {
	Surface string             `json:"surface"`
	Entity  microlink.EntityID `json:"entity"` // -1 when unlinkable
	Name    string             `json:"name,omitempty"`
}

// TweetResponse is the body of /v1/tweet.
type TweetResponse struct {
	Mentions []TweetMention `json:"mentions"`
}

// timeOrHorizon resolves an optional timestamp field.
func (s *Server) timeOrHorizon(t *int64) int64 {
	if t != nil {
		return *t
	}
	return s.sys.World.Horizon()
}

func (s *Server) handleTweet(w http.ResponseWriter, r *http.Request) {
	var req TweetRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if aerr := s.validateUser(int64(req.User)); aerr != nil {
		aerr.send(s, w)
		return
	}
	tw := microlink.Tweet{ID: req.ID, User: req.User, Time: s.timeOrHorizon(req.Time), Text: req.Text}
	for _, sp := range s.sys.NER.Extract(req.Text) {
		tw.Mentions = append(tw.Mentions, microlink.Mention{Surface: sp.Surface, Truth: microlink.NoEntity})
	}
	var links []microlink.EntityID
	if req.Feedback {
		rec, ok := s.apply(w, microlink.TweetEvent(&tw, nil))
		if !ok {
			return
		}
		links = rec.Links
	} else {
		links = s.sys.Linker.LinkTweet(&tw)
	}
	resp := TweetResponse{Mentions: make([]TweetMention, len(links))}
	for i, e := range links {
		m := TweetMention{Surface: tw.Mentions[i].Surface, Entity: e}
		if e != microlink.NoEntity {
			m.Name = s.sys.World.KB.Entity(e).Name
		}
		resp.Mentions[i] = m
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// ConfirmRequest is the body of POST /v1/confirm: the interactive
// consultation of §3.2.2 — the author confirms which entity a mention
// meant, and the confirmed link complements the knowledgebase (including
// the Appendix D warm-up case where the top-k was empty). Time is a
// pointer for the same epoch-0 reason as TweetRequest.Time.
type ConfirmRequest struct {
	Tweet  int64              `json:"tweet"`
	User   int32              `json:"user"`
	Time   *int64             `json:"time,omitempty"`
	Entity microlink.EntityID `json:"entity"`
}

func (s *Server) handleConfirm(w http.ResponseWriter, r *http.Request) {
	var req ConfirmRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if aerr := s.validateUser(int64(req.User)); aerr != nil {
		aerr.send(s, w)
		return
	}
	if req.Entity < 0 || int(req.Entity) >= s.sys.World.KB.NumEntities() {
		s.writeError(w, http.StatusNotFound, CodeUnknownEntity,
			"entity "+strconv.FormatInt(int64(req.Entity), 10)+" out of range")
		return
	}
	tw := microlink.Tweet{ID: req.Tweet, User: req.User, Time: s.timeOrHorizon(req.Time),
		Mentions: []microlink.Mention{{Truth: microlink.NoEntity}}}
	if _, ok := s.apply(w, microlink.FeedbackEvent(&tw, []microlink.EntityID{req.Entity})); ok {
		s.writeJSON(w, http.StatusOK, map[string]string{"status": "linked"})
	}
}

// SearchResponse is the body of /v1/search.
type SearchResponse struct {
	Query   string         `json:"query"`
	Results []SearchResult `json:"results"`
}

// SearchResult is one personalized search answer.
type SearchResult struct {
	Entity microlink.EntityID `json:"entity"`
	Name   string             `json:"name"`
	Tweet  int64              `json:"tweet"`
	User   int32              `json:"user"`
	Time   int64              `json:"time"`
	// Text is the tweet's text, absent when the server never stored the
	// tweet: a /v1/tweet without feedback is read-only, so a later
	// /v1/confirm of it posts a searchable link with no text. Post with
	// feedback: true for searchable text.
	Text string `json:"text,omitempty"`
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	user, aerr := s.parseUser(r)
	if aerr != nil {
		aerr.send(s, w)
		return
	}
	q := r.URL.Query().Get("q")
	if q == "" {
		s.writeError(w, http.StatusBadRequest, CodeMissingQuery, "missing q parameter")
		return
	}
	k, err := strconv.Atoi(r.URL.Query().Get("k"))
	if err != nil || k <= 0 {
		k = 2
	}
	limit, err := strconv.Atoi(r.URL.Query().Get("limit"))
	if err != nil || limit <= 0 {
		limit = 10
	}
	hits := s.sys.Search(user, s.parseNow(r), q, k)
	if len(hits) > limit {
		hits = hits[:limit]
	}
	resp := SearchResponse{Query: q, Results: make([]SearchResult, len(hits))}
	for i, h := range hits {
		resp.Results[i] = SearchResult{
			Entity: h.Entity,
			Name:   s.sys.World.KB.Entity(h.Entity).Name,
			Tweet:  h.Posting.Tweet,
			User:   h.Posting.User,
			Time:   h.Posting.Time,
			Text:   h.Text,
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// StatsResponse is the body of /v1/stats. The request counts are the
// HTTP middleware's, read from microlink_http_request_seconds{endpoint}:
// a request is counted when it completes, so a /v1/stats response never
// counts itself or any request still in flight. LinkRequests sums
// /v1/link and /v1/topk.
type StatsResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Users         int     `json:"users"`
	Entities      int     `json:"entities"`
	Postings      int64   `json:"postings"`
	LinkRequests  int64   `json:"link_requests"`
	BatchRequests int64   `json:"batch_requests"`
	TweetIngests  int64   `json:"tweet_ingests"`
	Searches      int64   `json:"searches"`
	ReachIndexMB  float64 `json:"reach_index_mb"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, StatsResponse{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Users:         s.sys.World.Graph.NumNodes(),
		Entities:      s.sys.World.KB.NumEntities(),
		Postings:      s.sys.CKB.TotalCount(),
		LinkRequests:  int64(s.mw.Requests("/v1/link") + s.mw.Requests("/v1/topk")),
		BatchRequests: int64(s.mw.Requests("/v1/link/batch")),
		TweetIngests:  int64(s.mw.Requests("/v1/tweet")),
		Searches:      int64(s.mw.Requests("/v1/search")),
		ReachIndexMB:  float64(s.sys.Reach.SizeBytes()) / (1 << 20),
	})
}
