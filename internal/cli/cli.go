// Package cli implements the interactive console behind cmd/linkcli: a
// small command loop over a built System, factored out of the binary so
// the command surface is unit-testable.
package cli

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"microlink"
)

// Run drives the console: it reads commands from in and writes results to
// out until EOF or the quit command. sys must have an ingest pipeline
// (System.StartIngest): the tweet command writes through it.
func Run(sys *microlink.System, in io.Reader, out io.Writer) {
	world := sys.World
	user := microlink.UserID(world.Graph.NumNodes() - 1)
	now := world.Horizon()
	nextTweetID := int64(1 << 40)

	prompt := func() { fmt.Fprintf(out, "u%d@t%d> ", user, now) }
	sc := bufio.NewScanner(in)
	prompt()
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		cmd, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		switch cmd {
		case "", "#":
		case "quit", "exit":
			return
		case "help":
			fmt.Fprintln(out, `commands:
  user N          switch the acting user
  now T           set the clock (unix seconds; "end" = world horizon)
  link MENTION    score all candidates of a mention
  topk MENTION    top-3 candidates above the new-entity threshold
  tweet TEXT      extract mentions, link them, feed back into the KB
  search QUERY    personalized microblog search
  entity ID       show one entity
  events          list burst events
  whoami          show the acting user's social profile
  stats           corpus and index statistics
  quit`)
		case "user":
			if n, err := strconv.Atoi(rest); err == nil && n >= 0 && n < world.Graph.NumNodes() {
				user = microlink.UserID(n)
			} else {
				fmt.Fprintln(out, "invalid user")
			}
		case "now":
			if rest == "end" {
				now = world.Horizon()
			} else if t, err := strconv.ParseInt(rest, 10, 64); err == nil {
				now = t
			} else {
				fmt.Fprintln(out, "invalid time")
			}
		case "link":
			scored := sys.Linker.ScoreCandidates(user, now, rest)
			if len(scored) == 0 {
				fmt.Fprintln(out, "no candidates")
				break
			}
			for i, s := range scored {
				fmt.Fprintf(out, "  #%d %-28s score=%.3f interest=%.2f recency=%.2f popularity=%.2f\n",
					i+1, world.KB.Entity(s.Entity).Name, s.Score, s.Interest, s.Recency, s.Popularity)
			}
		case "topk":
			top := sys.Linker.TopK(user, now, rest, 3)
			if len(top) == 0 {
				fmt.Fprintln(out, "empty top-k: probably a new entity or meaning (Appendix D)")
				break
			}
			for i, s := range top {
				fmt.Fprintf(out, "  #%d %s (%.3f)\n", i+1, world.KB.Entity(s.Entity).Name, s.Score)
			}
		case "tweet":
			spans := sys.NER.Extract(rest)
			if len(spans) == 0 {
				fmt.Fprintln(out, "no mentions found")
				break
			}
			tw := microlink.Tweet{ID: nextTweetID, User: user, Time: now, Text: rest}
			nextTweetID++
			for _, sp := range spans {
				tw.Mentions = append(tw.Mentions, microlink.Mention{Surface: sp.Surface, Truth: microlink.NoEntity})
			}
			rec, err := sys.Ingest().Apply(microlink.TweetEvent(&tw, nil))
			if err != nil {
				fmt.Fprintf(out, "tweet not applied: %v\n", err)
				break
			}
			for i, e := range rec.Links {
				if e == microlink.NoEntity {
					fmt.Fprintf(out, "  %q → (unlinkable)\n", tw.Mentions[i].Surface)
				} else {
					fmt.Fprintf(out, "  %q → %s\n", tw.Mentions[i].Surface, world.KB.Entity(e).Name)
				}
			}
			fmt.Fprintln(out, "  (fed back into the knowledgebase)")
		case "search":
			hits := sys.Search(user, now, rest, 2)
			if len(hits) == 0 {
				fmt.Fprintln(out, "no results")
				break
			}
			if len(hits) > 8 {
				hits = hits[:8]
			}
			for i, h := range hits {
				fmt.Fprintf(out, "  %d. [%s, t=%d, u%d] %s\n", i+1,
					world.KB.Entity(h.Entity).Name, h.Posting.Time, h.Posting.User, h.Text)
			}
		case "entity":
			id, err := strconv.Atoi(rest)
			if err != nil || id < 0 || id >= world.KB.NumEntities() {
				fmt.Fprintln(out, "invalid entity id")
				break
			}
			e := microlink.EntityID(id)
			ent := world.KB.Entity(e)
			fmt.Fprintf(out, "  %s (%s) topic=%d\n", ent.Name, ent.Category, world.EntityTopic[e])
			fmt.Fprintf(out, "  surfaces: %v\n", world.SurfacesOf[e])
			fmt.Fprintf(out, "  postings=%d community=%d recent(3d)=%d\n",
				sys.CKB.Count(e), sys.CKB.CommunitySize(e), sys.CKB.RecentCount(e, now, 3*86400))
		case "events":
			for _, ev := range world.Events {
				live := " "
				if now >= ev.Start && now <= ev.End {
					live = "*"
				}
				fmt.Fprintf(out, "  %s %-28s [%d, %d]\n", live, world.KB.Entity(ev.Entity).Name, ev.Start, ev.End)
			}
		case "whoami":
			fmt.Fprintf(out, "  user %d, community %d, follows %d accounts, %d tweets in corpus\n",
				user, world.UserTopic[user], world.Graph.OutDegree(user), world.Store.UserTweetCount(user))
		case "stats":
			st := world.Store.Stats()
			fmt.Fprintf(out, "  %d users, %d entities, %d tweets, %d postings in KB, reach index %.1f MB\n",
				world.Graph.NumNodes(), world.KB.NumEntities(), st.Tweets,
				sys.CKB.TotalCount(), float64(sys.Reach.SizeBytes())/(1<<20))
		default:
			fmt.Fprintf(out, "unknown command %q (try help)\n", cmd)
		}
		prompt()
	}
}
