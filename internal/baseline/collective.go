package baseline

import (
	"math"

	"microlink/internal/candidate"
	"microlink/internal/kb"
	"microlink/internal/tweets"
)

// Parameters of the Shen et al. [2]-style batch linker.
const (
	// collectiveLambda trades off the initial intra-tweet score against
	// propagated user interest in the PageRank-like iteration.
	collectiveLambda = 0.4
	// collectiveIterations bounds the propagation loop.
	collectiveIterations = 10
	// minRelatedness prunes candidate-graph edges below this WLM value to
	// keep the per-user graph sparse.
	minRelatedness = 0.05
)

// Collective is the batch linker of [2]: it assumes each user has an
// underlying interest distribution over entities, scattered across her
// tweet history, and disambiguates all her mentions jointly. It needs the
// whole corpus (for user histories) up front — exactly the property that
// makes it unsuitable for information seekers with few tweets, which the
// paper's evaluation highlights.
type Collective struct {
	kb    *kb.KB
	cand  *candidate.Index
	store *tweets.Store
	intra *OnTheFly
}

// NewCollective returns the collective baseline over a tweet corpus; its
// intra-tweet seed scores are the default on-the-fly linker's.
func NewCollective(k *kb.KB, cand *candidate.Index, store *tweets.Store) *Collective {
	return &Collective{
		kb:    k,
		cand:  cand,
		store: store,
		intra: NewOnTheFly(k, cand, OnTheFlyOptions{}),
	}
}

// Name implements the eval.Linker convention.
func (l *Collective) Name() string { return "collective" }

// node is one (tweet, mention, candidate) triple in the per-user graph.
type node struct {
	tweet   int // index into the user's tweet list
	mention int
	ent     kb.EntityID
	score   float64
}

// LinkUser jointly links every mention in every tweet of user u. The
// result maps tweet index (within store.ByUser(u)) to one entity per
// mention.
func (l *Collective) LinkUser(u kb.UserID) [][]kb.EntityID {
	history := l.store.ByUser(u)
	return l.linkHistory(history)
}

// LinkTweet links the mentions of tw by running collective inference over
// its author's full history and extracting the assignment for tw.
func (l *Collective) LinkTweet(tw *tweets.Tweet) []kb.EntityID {
	history := l.store.ByUser(tw.User)
	idx := -1
	for i, h := range history {
		if h.ID == tw.ID {
			idx = i
			break
		}
	}
	if idx == -1 {
		// Unknown to the corpus (e.g. a fresh stream tweet): treat the
		// tweet as a one-element history.
		history = []*tweets.Tweet{tw}
		idx = 0
	}
	return l.linkHistory(history)[idx]
}

func (l *Collective) linkHistory(history []*tweets.Tweet) [][]kb.EntityID {
	// Gather candidates for every mention of every tweet.
	var nodes []node
	type mentionRef struct{ first, n int } // node range per (tweet, mention)
	refs := make([][]mentionRef, len(history))
	for ti, tw := range history {
		ctx := contextVector(tw.Text)
		cands := make([][]candidate.Candidate, len(tw.Mentions))
		for mi, m := range tw.Mentions {
			cands[mi] = l.cand.Candidates(m.Surface)
		}
		refs[ti] = make([]mentionRef, len(tw.Mentions))
		for mi := range tw.Mentions {
			refs[ti][mi] = mentionRef{first: len(nodes), n: len(cands[mi])}
			for _, c := range cands[mi] {
				nodes = append(nodes, node{
					tweet:   ti,
					mention: mi,
					ent:     c.Entity,
					score:   l.intra.InitialScore(c.Entity, mi, cands, ctx),
				})
			}
		}
	}

	l.propagate(nodes)

	// Per-mention argmax.
	out := make([][]kb.EntityID, len(history))
	for ti := range history {
		out[ti] = make([]kb.EntityID, len(refs[ti]))
		for mi, ref := range refs[ti] {
			best, bestScore := kb.NoEntity, math.Inf(-1)
			for k := ref.first; k < ref.first+ref.n; k++ {
				if nodes[k].score > bestScore {
					best, bestScore = nodes[k].ent, nodes[k].score
				}
			}
			out[ti][mi] = best
		}
	}
	return out
}

// propagate runs the PageRank-like interest propagation of [2] over the
// candidate graph: edges connect candidates of *different* mentions with
// weight WLM(e, e′) when above the pruning threshold.
func (l *Collective) propagate(nodes []node) {
	n := len(nodes)
	if n <= 1 {
		return
	}
	type edge struct {
		to int
		w  float64
	}
	adj := make([][]edge, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if nodes[i].tweet == nodes[j].tweet && nodes[i].mention == nodes[j].mention {
				continue // same mention: candidates compete, never support
			}
			w := l.kb.Relatedness(nodes[i].ent, nodes[j].ent)
			if w < minRelatedness {
				continue
			}
			adj[i] = append(adj[i], edge{to: j, w: w})
			adj[j] = append(adj[j], edge{to: i, w: w})
		}
	}
	// Row-normalise.
	outSum := make([]float64, n)
	for i := range adj {
		for _, e := range adj[i] {
			outSum[i] += e.w
		}
	}
	s0 := make([]float64, n)
	cur := make([]float64, n)
	for i, nd := range nodes {
		s0[i] = nd.score
		cur[i] = nd.score
	}
	nxt := make([]float64, n)
	const lam = collectiveLambda
	for it := 0; it < collectiveIterations; it++ {
		for i := 0; i < n; i++ {
			acc := 0.0
			for _, e := range adj[i] {
				if outSum[e.to] > 0 {
					acc += e.w / outSum[e.to] * cur[e.to]
				}
			}
			nxt[i] = lam*s0[i] + (1-lam)*acc
		}
		cur, nxt = nxt, cur
	}
	for i := range nodes {
		nodes[i].score = cur[i]
	}
}
