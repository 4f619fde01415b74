package httpapi

import (
	"net/http"

	"microlink"
)

// Every write goes through the attached ingest pipeline, in one of two
// contracts. The firehose endpoints validate the request, convert it into
// a pipeline event and enqueue it: the response is 202 Accepted before
// any linking or index maintenance has happened, and a full queue is
// surfaced as 503 queue_full — the client-side half of the pipeline's
// backpressure policy. /v1/confirm and /v1/tweet with feedback apply
// their event through Pipeline.Apply instead and answer 200 only after
// the WAL tee has taken it, 500 internal when it failed. A server running
// without a pipeline rejects all of them with 503 ingest_disabled.

// pipeline fetches the attached ingest pipeline, writing the
// ingest_disabled envelope when there is none.
func (s *Server) pipeline(w http.ResponseWriter) *microlink.IngestPipeline {
	p := s.sys.Ingest()
	if p == nil {
		s.writeError(w, http.StatusServiceUnavailable, CodeIngestDisabled,
			"no ingest pipeline attached to this server")
	}
	return p
}

// apply runs ev through Pipeline.Apply and returns the journaled record,
// or writes the 503 or 500 response and reports false.
func (s *Server) apply(w http.ResponseWriter, ev microlink.IngestEvent) (microlink.IngestEvent, bool) {
	p := s.pipeline(w)
	if p == nil {
		return ev, false
	}
	rec, err := p.Apply(ev)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return rec, false
	}
	return rec, true
}

// IngestAccepted is the 202 body of both firehose endpoints.
type IngestAccepted struct {
	Status     string `json:"status"` // always "queued"
	QueueDepth int    `json:"queue_depth"`
}

// offer enqueues ev without blocking, writing the 202 or 503 response.
func (s *Server) offer(w http.ResponseWriter, p *microlink.IngestPipeline, ev microlink.IngestEvent) {
	if !p.Offer(ev) {
		s.writeError(w, http.StatusServiceUnavailable, CodeQueueFull,
			"ingest queue full; retry later")
		return
	}
	s.writeJSON(w, http.StatusAccepted, IngestAccepted{
		Status:     "queued",
		QueueDepth: p.Stats().QueueDepth,
	})
}

// IngestTweetRequest is the body of POST /v1/ingest/tweet: a raw tweet
// for the firehose. Unlike /v1/tweet, mentions are extracted here but
// linked asynchronously by the pipeline's applier.
type IngestTweetRequest struct {
	ID   int64  `json:"id"`
	User int32  `json:"user"`
	Time *int64 `json:"time,omitempty"`
	Text string `json:"text"`
}

func (s *Server) handleIngestTweet(w http.ResponseWriter, r *http.Request) {
	p := s.pipeline(w)
	if p == nil {
		return
	}
	var req IngestTweetRequest
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
	s.offer(w, p, microlink.TweetEvent(&tw, nil))
}

// IngestFollowRequest is the body of POST /v1/ingest/follow: a new
// follower → followee edge for the live social graph.
type IngestFollowRequest struct {
	Follower int32 `json:"follower"`
	Followee int32 `json:"followee"`
}

func (s *Server) handleIngestFollow(w http.ResponseWriter, r *http.Request) {
	p := s.pipeline(w)
	if p == nil {
		return
	}
	var req IngestFollowRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if aerr := s.validateUser(int64(req.Follower)); aerr != nil {
		aerr.send(s, w)
		return
	}
	if aerr := s.validateUser(int64(req.Followee)); aerr != nil {
		aerr.send(s, w)
		return
	}
	s.offer(w, p, microlink.FollowEvent(req.Follower, req.Followee))
}
