package store

import (
	"encoding/binary"
	"fmt"
	"strings"

	"microlink/internal/kb"
	"microlink/internal/tweets"
)

// Kind discriminates mutation records: WAL records and, before they are
// applied, ingest events. The zero Kind is invalid.
type Kind uint8

// Record kinds. Values are part of the on-disk format.
const (
	// RecTweet is a streamed tweet with its resolved entity links (the
	// links actually fed back pre-crash, so replay never re-links).
	RecTweet Kind = 1
	// RecFollow is a follow edge U → V.
	RecFollow Kind = 2
	// RecFeedback is an explicit linking correction.
	RecFeedback Kind = 3
)

// String names the kind for diagnostics and for the kind label of
// microlink_ingest_events_total.
func (k Kind) String() string {
	switch k {
	case RecTweet:
		return "tweet"
	case RecFollow:
		return "follow"
	case RecFeedback:
		return "feedback"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Record is one mutation of serving state: the ingest pipeline's event
// and the WAL's record (internal/ingest applies both). A RecTweet's Links
// are the links fed back into the complemented KB. At intake nil means
// "link on apply"; the applier journals the resolved links, so the WAL
// never holds nil ones (the codec still keeps nil distinct from empty).
type Record struct {
	Kind  Kind
	Tweet *tweets.Tweet // RecTweet, RecFeedback
	Links []kb.EntityID // links fed back; see above for nil
	U, V  kb.UserID     // RecFollow
}

// TweetRecord wraps an applied tweet and the links fed back for it.
func TweetRecord(tw *tweets.Tweet, links []kb.EntityID) Record {
	return Record{Kind: RecTweet, Tweet: tw, Links: links}
}

// FollowRecord wraps an applied follow edge u → v.
func FollowRecord(u, v kb.UserID) Record {
	return Record{Kind: RecFollow, U: u, V: v}
}

// FeedbackRecord wraps an applied linking correction.
func FeedbackRecord(tw *tweets.Tweet, links []kb.EntityID) Record {
	return Record{Kind: RecFeedback, Tweet: tw, Links: links}
}

// Encoding limits. Bounds both encode-time validation and decode-time
// sanity checks, so a corrupt length field can never drive a huge
// allocation.
const (
	maxTextLen  = 1 << 20 // tweet text bytes
	maxMentions = 1 << 16 // mentions per tweet
	maxSurface  = 1 << 16 // surface bytes per mention
	maxLinks    = 1 << 16 // links per record
)

// appendTweet serialises a tweet body (shared by WAL records and the
// tweets segment): id i64 | user i32 | time i64 | textLen u32 + bytes |
// nMentions u16 | {surfLen u16 + bytes, start i32, end i32, truth i32,
// kind u8}…, all little endian.
func appendTweet(b []byte, tw *tweets.Tweet) ([]byte, error) {
	if len(tw.Text) > maxTextLen {
		return nil, fmt.Errorf("store: tweet %d text exceeds %d bytes", tw.ID, maxTextLen)
	}
	if len(tw.Mentions) >= maxMentions {
		return nil, fmt.Errorf("store: tweet %d carries too many mentions", tw.ID)
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(tw.ID))
	b = binary.LittleEndian.AppendUint32(b, uint32(tw.User))
	b = binary.LittleEndian.AppendUint64(b, uint64(tw.Time))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(tw.Text)))
	b = append(b, tw.Text...)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(tw.Mentions)))
	for i := range tw.Mentions {
		m := &tw.Mentions[i]
		if len(m.Surface) >= maxSurface {
			return nil, fmt.Errorf("store: tweet %d mention surface too long", tw.ID)
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(len(m.Surface)))
		b = append(b, m.Surface...)
		b = binary.LittleEndian.AppendUint32(b, uint32(m.Start))
		b = binary.LittleEndian.AppendUint32(b, uint32(m.End))
		b = binary.LittleEndian.AppendUint32(b, uint32(m.Truth))
		b = append(b, byte(m.Kind))
	}
	return b, nil
}

// minTweetSize is the smallest encoded tweet body (id, user, time, text
// length, mention count; no text, no mentions), and minMentionSize the
// smallest encoded mention (surface length, start, end, truth, kind):
// the per-element floors that bound decoded counts by the bytes left.
const (
	minTweetSize   = 8 + 4 + 8 + 4 + 2
	minMentionSize = 2 + 4 + 4 + 4 + 1
)

// decoder walks a byte slice with bounds checking; every overrun is a
// typed error of the decoder's class (ErrWALCorrupt for WAL records,
// ErrSegment for segment payloads), never a panic.
type decoder struct {
	b     []byte
	class error
}

func (d *decoder) need(n int) ([]byte, error) {
	if len(d.b) < n {
		return nil, fmt.Errorf("%w: truncated (%d bytes short)", d.class, n-len(d.b))
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out, nil
}

// bound rejects a decoded element count that cannot fit in the bytes
// left at elemSize bytes (at least) each: a corrupt count is an error
// before it sizes any allocation.
func (d *decoder) bound(n uint64, elemSize int, what string) (int, error) {
	if n > uint64(len(d.b)/elemSize) {
		return 0, fmt.Errorf("%w: %d %s cannot fit in the %d bytes left", d.class, n, what, len(d.b))
	}
	return int(n), nil
}

// count reads a u64 element count and bounds it by the bytes left.
func (d *decoder) count(elemSize int, what string) (int, error) {
	n, err := d.u64()
	if err != nil {
		return 0, err
	}
	return d.bound(n, elemSize, what)
}

// count32 reads a u32 element count and bounds it by the bytes left.
func (d *decoder) count32(elemSize int, what string) (int, error) {
	n, err := d.u32()
	if err != nil {
		return 0, err
	}
	return d.bound(uint64(n), elemSize, what)
}

// pair reads one (u i32, v i32) edge. The caller has bounded the edge
// count by the bytes left, so the read cannot overrun.
func (d *decoder) pair() (int32, int32) {
	u := int32(binary.LittleEndian.Uint32(d.b[:4]))
	v := int32(binary.LittleEndian.Uint32(d.b[4:8]))
	d.b = d.b[8:]
	return u, v
}

func (d *decoder) u8() (uint8, error) {
	b, err := d.need(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (d *decoder) u16() (uint16, error) {
	b, err := d.need(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (d *decoder) u32() (uint32, error) {
	b, err := d.need(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (d *decoder) u64() (uint64, error) {
	b, err := d.need(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// tweetArena carves decoded tweets' strings out of one backing and their
// mention lists out of one array, both sized from a tweets payload's
// totals. A nil arena allocates per field (WAL records, one tweet each).
type tweetArena struct {
	text     strings.Builder
	mentions []tweets.Mention
}

// str returns b as a string: a fresh one, or a slice of the shared
// backing. Bytes already written to a strings.Builder never change, so
// earlier slices stay valid even if more bytes arrive than the total
// promised and it grows (the payload decoder then rejects the totals).
func (a *tweetArena) str(b []byte) string {
	if a == nil {
		return string(b)
	}
	start := a.text.Len()
	a.text.Write(b)
	return a.text.String()[start:]
}

// mentionList returns room for n mentions, or nil when the arena has
// fewer left. Carved lists are capped so an append to one never writes
// into the next.
func (a *tweetArena) mentionList(n int) []tweets.Mention {
	if a == nil {
		return make([]tweets.Mention, n)
	}
	if n > len(a.mentions) {
		return nil
	}
	ms := a.mentions[:n:n]
	a.mentions = a.mentions[n:]
	return ms
}

func decodeTweet(d *decoder, a *tweetArena) (tweets.Tweet, error) {
	var tw tweets.Tweet
	id, err := d.u64()
	if err != nil {
		return tw, err
	}
	user, err := d.u32()
	if err != nil {
		return tw, err
	}
	ts, err := d.u64()
	if err != nil {
		return tw, err
	}
	textLen, err := d.u32()
	if err != nil {
		return tw, err
	}
	if textLen > maxTextLen {
		return tw, fmt.Errorf("%w: tweet text length %d", d.class, textLen)
	}
	text, err := d.need(int(textLen))
	if err != nil {
		return tw, err
	}
	rawMentions, err := d.u16()
	if err != nil {
		return tw, err
	}
	nm, err := d.bound(uint64(rawMentions), minMentionSize, "mentions")
	if err != nil {
		return tw, err
	}
	tw.ID = int64(id)
	tw.User = kb.UserID(int32(user))
	tw.Time = int64(ts)
	tw.Text = a.str(text)
	if nm > 0 {
		if tw.Mentions = a.mentionList(nm); tw.Mentions == nil {
			return tw, fmt.Errorf("%w: more mentions than the payload's total", d.class)
		}
	}
	for i := 0; i < nm; i++ {
		sl, err := d.u16()
		if err != nil {
			return tw, err
		}
		surf, err := d.need(int(sl))
		if err != nil {
			return tw, err
		}
		start, err := d.u32()
		if err != nil {
			return tw, err
		}
		end, err := d.u32()
		if err != nil {
			return tw, err
		}
		truth, err := d.u32()
		if err != nil {
			return tw, err
		}
		kind, err := d.u8()
		if err != nil {
			return tw, err
		}
		tw.Mentions[i] = tweets.Mention{
			Surface: a.str(surf),
			Start:   int(int32(start)),
			End:     int(int32(end)),
			Truth:   kb.EntityID(int32(truth)),
			Kind:    tweets.MentionKind(kind),
		}
	}
	return tw, nil
}

// appendRecord serialises r's payload (the frame around it — kind, length,
// checksum — is the WAL writer's job). Links use a nil-preserving count:
// 0 ⇒ nil, n+1 ⇒ n links.
func appendRecord(b []byte, r *Record) ([]byte, error) {
	switch r.Kind {
	case RecTweet, RecFeedback:
		if r.Tweet == nil {
			return nil, fmt.Errorf("store: %s record without a tweet", r.Kind)
		}
		if len(r.Links) >= maxLinks {
			return nil, fmt.Errorf("store: record carries too many links")
		}
		var err error
		if b, err = appendTweet(b, r.Tweet); err != nil {
			return nil, err
		}
		if r.Links == nil {
			b = binary.LittleEndian.AppendUint16(b, 0)
		} else {
			b = binary.LittleEndian.AppendUint16(b, uint16(len(r.Links)+1))
			for _, e := range r.Links {
				b = binary.LittleEndian.AppendUint32(b, uint32(e))
			}
		}
		return b, nil
	case RecFollow:
		b = binary.LittleEndian.AppendUint32(b, uint32(r.U))
		b = binary.LittleEndian.AppendUint32(b, uint32(r.V))
		return b, nil
	default:
		return nil, fmt.Errorf("store: unknown record kind %d", r.Kind)
	}
}

// decodeRecord parses one checksum-verified payload back into a Record.
func decodeRecord(kind Kind, payload []byte) (Record, error) {
	d := &decoder{b: payload, class: ErrWALCorrupt}
	r := Record{Kind: kind}
	switch kind {
	case RecTweet, RecFeedback:
		tw, err := decodeTweet(d, nil)
		if err != nil {
			return r, err
		}
		nl, err := d.u16()
		if err != nil {
			return r, err
		}
		r.Tweet = &tw
		if nl > 0 {
			n, err := d.bound(uint64(nl-1), 4, "links")
			if err != nil {
				return r, err
			}
			r.Links = make([]kb.EntityID, n)
			for i := range r.Links {
				e, err := d.u32()
				if err != nil {
					return r, err
				}
				r.Links[i] = kb.EntityID(int32(e))
			}
		}
	case RecFollow:
		u, err := d.u32()
		if err != nil {
			return r, err
		}
		v, err := d.u32()
		if err != nil {
			return r, err
		}
		r.U = kb.UserID(int32(u))
		r.V = kb.UserID(int32(v))
	default:
		return r, fmt.Errorf("%w: unknown record kind %d", ErrWALCorrupt, kind)
	}
	if len(d.b) != 0 {
		return r, fmt.Errorf("%w: %d trailing bytes after %s record", ErrWALCorrupt, len(d.b), kind)
	}
	return r, nil
}
