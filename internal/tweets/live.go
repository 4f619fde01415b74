package tweets

import "sync"

// LiveStore is the streaming counterpart of Store: an append-only corpus
// that accepts tweets while queries read it concurrently. The frozen
// Store is built once at load time and never mutated; the ingest pipeline
// appends arriving tweets here instead, without touching the frozen
// corpus.
//
// All methods are safe for concurrent use. Tweets are kept in arrival
// order (the stream is assumed time-ordered; no re-sort happens on
// append), and accessors return copies so callers never alias the
// guarded backing storage.
type LiveStore struct {
	mu      sync.RWMutex    // microlint:lock-order tweets-live
	all     []Tweet         // microlint:guarded-by mu
	byID    map[int64]int32 // microlint:guarded-by mu — index into all, covering all[:indexed]
	indexed int             // microlint:guarded-by mu
}

// NewLiveStore returns an empty live corpus.
func NewLiveStore() *LiveStore { return &LiveStore{} }

// Append adds one tweet in arrival order.
func (s *LiveStore) Append(tw Tweet) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.all = append(s.all, tw)
}

// Len returns the number of tweets appended so far.
func (s *LiveStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.all)
}

// All returns a copy of the corpus in arrival order — the persistence
// capture: replaying Append over it reproduces the store exactly.
func (s *LiveStore) All() []Tweet {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Tweet, len(s.all))
	copy(out, s.all)
	return out
}

// Text returns the text of the tweet with the given id (the latest one
// when an id repeats). The id index is brought up to date here, not in
// Append, so the ingest path pays nothing for it.
func (s *LiveStore) Text(id int64) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.byID == nil {
		s.byID = make(map[int64]int32)
	}
	for ; s.indexed < len(s.all); s.indexed++ {
		s.byID[s.all[s.indexed].ID] = int32(s.indexed)
	}
	i, ok := s.byID[id]
	if !ok {
		return "", false
	}
	return s.all[i].Text, true
}
