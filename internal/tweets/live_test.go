package tweets

import (
	"strconv"
	"sync"
	"testing"
)

// TestLiveStoreText resolves ids appended before and after earlier
// lookups (the index catches up lazily), the latest text of a repeated
// id, and a miss; a writer and a reader run concurrently for -race.
func TestLiveStoreText(t *testing.T) {
	s := NewLiveStore()
	s.Append(Tweet{ID: 1, Text: "one"})
	if got, ok := s.Text(1); !ok || got != "one" {
		t.Fatalf("Text(1) = %q %v", got, ok)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(2); i < 200; i++ {
			s.Append(Tweet{ID: i, Text: strconv.FormatInt(i, 10)})
		}
	}()
	for i := 0; i < 200; i++ {
		s.Text(int64(i))
	}
	wg.Wait()
	s.Append(Tweet{ID: 1, Text: "one again"})
	for id, want := range map[int64]string{1: "one again", 2: "2", 199: "199"} {
		if got, ok := s.Text(id); !ok || got != want {
			t.Errorf("Text(%d) = %q %v, want %q", id, got, ok, want)
		}
	}
	if got, ok := s.Text(200); ok {
		t.Errorf("Text(200) = %q, want a miss", got)
	}
}
