package cli

import (
	"strings"
	"sync"
	"testing"

	"microlink"
)

var (
	once sync.Once
	sys  *microlink.System
)

func testSys(t *testing.T) *microlink.System {
	t.Helper()
	once.Do(func() {
		w := microlink.Generate(microlink.WorldParams{
			Seed: 5, Users: 400, Topics: 6, EntitiesPerTopic: 10, Days: 20,
		})
		sys = microlink.Build(w, microlink.Options{TruthComplement: true, Reach: microlink.ReachStreaming})
		if _, err := sys.StartIngest(microlink.IngestConfig{}); err != nil {
			panic(err)
		}
	})
	return sys
}

// run feeds a script of commands and returns the console output.
func run(t *testing.T, script string) string {
	t.Helper()
	var out strings.Builder
	Run(testSys(t), strings.NewReader(script), &out)
	return out.String()
}

func ambiguousSurface(t *testing.T) string {
	t.Helper()
	var surface string
	testSys(t).World.KB.EachSurface(func(form string, cs []microlink.EntityID) {
		if surface == "" && len(cs) >= 2 {
			surface = form
		}
	})
	return surface
}

func TestHelpAndQuit(t *testing.T) {
	out := run(t, "help\nquit\n")
	if !strings.Contains(out, "commands:") || !strings.Contains(out, "search QUERY") {
		t.Fatalf("help output: %s", out)
	}
}

func TestLinkCommand(t *testing.T) {
	s := ambiguousSurface(t)
	out := run(t, "link "+s+"\nquit\n")
	if !strings.Contains(out, "#1") || !strings.Contains(out, "score=") {
		t.Fatalf("link output: %s", out)
	}
	out = run(t, "link zzzzzz\nquit\n")
	if !strings.Contains(out, "no candidates") {
		t.Fatalf("unknown mention output: %s", out)
	}
}

func TestUserAndNowSwitch(t *testing.T) {
	out := run(t, "user 3\nnow 1000\nwhoami\nquit\n")
	if !strings.Contains(out, "u3@t1000>") {
		t.Fatalf("prompt did not update: %s", out)
	}
	if !strings.Contains(out, "user 3, community") {
		t.Fatalf("whoami output: %s", out)
	}
	out = run(t, "user -4\nnow abc\nquit\n")
	if !strings.Contains(out, "invalid user") || !strings.Contains(out, "invalid time") {
		t.Fatalf("validation output: %s", out)
	}
}

func TestNowEnd(t *testing.T) {
	horizon := testSys(t).World.Horizon()
	out := run(t, "now 5\nnow end\nquit\n")
	if !strings.Contains(out, "u399@t"+itoa(horizon)+">") {
		t.Fatalf("now end output: %s", out)
	}
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	s := ""
	for n > 0 {
		s = string(rune('0'+n%10)) + s
		n /= 10
	}
	return s
}

func TestTweetFeedbackLoop(t *testing.T) {
	s := ambiguousSurface(t)
	before := testSys(t).CKB.TotalCount()
	out := run(t, "tweet hello "+s+" world\nquit\n")
	if !strings.Contains(out, "fed back") {
		t.Fatalf("tweet output: %s", out)
	}
	if testSys(t).CKB.TotalCount() <= before {
		t.Fatal("feedback did not reach the KB")
	}
	out = run(t, "tweet no mentions whatsoever here\nquit\n")
	if !strings.Contains(out, "no mentions found") {
		t.Fatalf("mention-free tweet output: %s", out)
	}
}

// TestTweetThenSearch: a tweet fed back through the pipeline joins the
// live corpus, so a search that returns its posting shows its text.
func TestTweetThenSearch(t *testing.T) {
	s := ambiguousSurface(t)
	sys := testSys(t)
	user := 0
	for len(sys.Linker.TopK(microlink.UserID(user), sys.World.Horizon(), s, 1)) == 0 {
		if user++; user == sys.World.Graph.NumNodes() {
			t.Fatalf("no user's top-k for %q clears the new-entity threshold", s)
		}
	}
	text := "fresh take on " + s + " tonight"
	out := run(t, "user "+itoa(int64(user))+"\ntweet "+text+"\nsearch "+s+"\nquit\n")
	if !strings.Contains(out, "fed back") {
		t.Fatalf("tweet output: %s", out)
	}
	if !strings.Contains(out, "] "+text+"\n") {
		t.Fatalf("search does not show the tweet's text %q: %s", text, out)
	}
}

func TestEntityAndEvents(t *testing.T) {
	out := run(t, "entity 0\nevents\nquit\n")
	if !strings.Contains(out, "surfaces:") || !strings.Contains(out, "postings=") {
		t.Fatalf("entity output: %s", out)
	}
	if !strings.Contains(out, "[") {
		t.Fatalf("events output: %s", out)
	}
	out = run(t, "entity 99999\nquit\n")
	if !strings.Contains(out, "invalid entity id") {
		t.Fatalf("entity validation: %s", out)
	}
}

func TestStatsAndUnknownCommand(t *testing.T) {
	out := run(t, "stats\nfrobnicate\nquit\n")
	if !strings.Contains(out, "postings in KB") {
		t.Fatalf("stats output: %s", out)
	}
	if !strings.Contains(out, `unknown command "frobnicate"`) {
		t.Fatalf("unknown command output: %s", out)
	}
}

func TestSearchCommand(t *testing.T) {
	s := ambiguousSurface(t)
	out := run(t, "search "+s+"\nquit\n")
	if !strings.Contains(out, "no results") && !strings.Contains(out, "1. [") {
		t.Fatalf("search output: %s", out)
	}
}

func TestEOFTerminates(t *testing.T) {
	out := run(t, "stats\n") // no quit: EOF ends the loop
	if !strings.Contains(out, "postings in KB") {
		t.Fatalf("output: %s", out)
	}
}
