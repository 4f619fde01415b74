package synth

import (
	"runtime"
	"sync"

	"microlink/internal/baseline"
	"microlink/internal/candidate"
	"microlink/internal/kb"
	"microlink/internal/tweets"
)

// ComplementTruth builds a complemented knowledgebase by linking every
// mention of sub with its ground-truth entity — an oracle version of the
// offline knowledge-acquisition stage, useful for controlled experiments.
func (d *Dataset) ComplementTruth(sub *tweets.Store) *kb.Complemented {
	c := kb.Complement(d.KB)
	for _, tw := range sub.All() {
		for _, m := range tw.Mentions {
			if m.Truth != kb.NoEntity {
				c.Link(m.Truth, kb.Posting{Tweet: tw.ID, User: tw.User, Time: tw.Time})
			}
		}
	}
	return c
}

// ComplementCollective reproduces §3.2.1 faithfully: the collective linker
// [2] is run over every user of sub and its (imperfect) assignments
// populate the complemented knowledgebase. Mislinks on low-activity users
// introduce exactly the quality/coverage trade-off behind the D70→D50 dip
// of Fig. 4(b).
func (d *Dataset) ComplementCollective(sub *tweets.Store, cand *candidate.Index) *kb.Complemented {
	coll := baseline.NewCollective(d.KB, cand, sub)
	c := kb.Complement(d.KB)
	users := sub.Users()

	// Users are linked independently of each other, so the batch inference
	// fans out across a worker pool; the complemented KB serialises the
	// appends internally.
	workers := min(runtime.GOMAXPROCS(0), max(1, len(users)))
	var wg sync.WaitGroup
	var next int64
	var mu sync.Mutex
	take := func() int {
		mu.Lock()
		defer mu.Unlock()
		if int(next) >= len(users) {
			return -1
		}
		i := int(next)
		next++
		return i
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := take()
				if i < 0 {
					return
				}
				u := users[i]
				assigned := coll.LinkUser(u)
				for ti, tw := range sub.ByUser(u) {
					for mi := range tw.Mentions {
						if e := assigned[ti][mi]; e != kb.NoEntity {
							c.Link(e, kb.Posting{Tweet: tw.ID, User: tw.User, Time: tw.Time})
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	return c
}

// ActivitySplit returns the activity-filtered corpus family of §5.1.2: for
// each threshold θ in thetas, the tweets of users with ≥ θ postings; plus
// the inactive-user test corpus (users with 1..testMax postings).
func (d *Dataset) ActivitySplit(thetas []int, testMax int) (active map[int]*tweets.Store, test *tweets.Store) {
	active = make(map[int]*tweets.Store, len(thetas))
	for _, th := range thetas {
		active[th] = d.Store.FilterByActivity(th, 0)
	}
	test = d.Store.FilterByActivity(1, testMax)
	return active, test
}
