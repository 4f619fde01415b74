package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"microlink/internal/kb"
	"microlink/internal/synth"
	"microlink/internal/tweets"
)

// World payload: the *synth.Dataset a System serves — everything Open
// needs that no other segment holds — in this order:
//
//	params        len u32 | JSON synth.Params
//	graph         the graph payload (the base follow graph)
//	kb            entities: count u32 | × (category u8, name str,
//	                  context list | × (term str, weight f32))
//	              surfaces: count u32 | × (form str, candidates u32 | × i32),
//	                  forms ascending
//	              outlinks: per entity, count u32 | × i32
//	corpus        the tweets payload (the generated corpus, time order)
//	events        list | × (entity i32, start i64, end i64)
//	entity topic  list | × i32
//	user topic    list | × i32
//	broadcasters  list | × (list | × user i32)
//	surfaces of   list | × (list | × str)
//
// A str is a u16 length and its bytes. A list is a nil-preserving u32
// count — 0 ⇒ nil, n+1 ⇒ n elements — so a loaded world is the written
// one down to reflect.DeepEqual. The decoder bounds every count by the
// bytes left and checks every entity and user id against the count it
// indexes, so a damaged world is ErrSegment, never a panic later.

func writeWorldPayload(w io.Writer, d *synth.Dataset) error {
	params, err := json.Marshal(d.Params)
	if err != nil {
		return err
	}
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(params)))
	if _, err := w.Write(append(b, params...)); err != nil {
		return err
	}
	if err := writeGraphPayload(w, d.Graph); err != nil {
		return err
	}
	if b, err = appendKB(nil, d.KB); err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	if err := writeTweetsPayload(w, d.Store.All()); err != nil {
		return err
	}

	b = appendList(b[:0], len(d.Events), d.Events == nil)
	for _, ev := range d.Events {
		b = binary.LittleEndian.AppendUint32(b, uint32(ev.Entity))
		b = binary.LittleEndian.AppendUint64(b, uint64(ev.Start))
		b = binary.LittleEndian.AppendUint64(b, uint64(ev.End))
	}
	b = appendInts(b, d.EntityTopic)
	b = appendInts(b, d.UserTopic)
	b = appendList(b, len(d.Broadcasters), d.Broadcasters == nil)
	for _, us := range d.Broadcasters {
		b = appendList(b, len(us), us == nil)
		for _, u := range us {
			b = binary.LittleEndian.AppendUint32(b, uint32(u))
		}
	}
	b = appendList(b, len(d.SurfacesOf), d.SurfacesOf == nil)
	for _, forms := range d.SurfacesOf {
		b = appendList(b, len(forms), forms == nil)
		for _, f := range forms {
			if b, err = appendStr(b, f); err != nil {
				return err
			}
		}
	}
	_, err = w.Write(b)
	return err
}

func appendKB(b []byte, k *kb.KB) ([]byte, error) {
	var err error
	n := k.NumEntities()
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	for e := 0; e < n; e++ {
		ent := k.Entity(kb.EntityID(e))
		b = append(b, byte(ent.Category))
		if b, err = appendStr(b, ent.Name); err != nil {
			return nil, err
		}
		terms := make([]string, 0, len(ent.Context))
		for t := range ent.Context {
			terms = append(terms, t)
		}
		sort.Strings(terms)
		b = appendList(b, len(terms), ent.Context == nil)
		for _, t := range terms {
			if b, err = appendStr(b, t); err != nil {
				return nil, err
			}
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(ent.Context[t]))
		}
	}
	forms := make([]string, 0, k.NumSurfaces())
	k.EachSurface(func(form string, _ []kb.EntityID) { forms = append(forms, form) })
	sort.Strings(forms)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(forms)))
	for _, f := range forms {
		if b, err = appendStr(b, f); err != nil {
			return nil, err
		}
		b = appendIDs(b, k.Candidates(f))
	}
	for e := 0; e < n; e++ {
		b = appendIDs(b, k.Outlinks(kb.EntityID(e)))
	}
	return b, nil
}

// appendList writes a nil-preserving count: 0 for nil, n+1 otherwise.
func appendList(b []byte, n int, isNil bool) []byte {
	if isNil {
		return binary.LittleEndian.AppendUint32(b, 0)
	}
	return binary.LittleEndian.AppendUint32(b, uint32(n)+1)
}

func appendInts(b []byte, xs []int) []byte {
	b = appendList(b, len(xs), xs == nil)
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(x)))
	}
	return b
}

// appendIDs writes a plain u32 count and the ids.
func appendIDs(b []byte, ids []kb.EntityID) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ids)))
	for _, id := range ids {
		b = binary.LittleEndian.AppendUint32(b, uint32(id))
	}
	return b
}

func appendStr(b []byte, s string) ([]byte, error) {
	if len(s) >= maxSurface {
		return nil, fmt.Errorf("store: world string of %d bytes exceeds %d", len(s), maxSurface-1)
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...), nil
}

func readWorldPayload(d *decoder) (*synth.Dataset, error) {
	w := &synth.Dataset{}
	n, err := d.count32(1, "params bytes")
	if err != nil {
		return nil, err
	}
	params, err := d.need(n)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(params, &w.Params); err != nil {
		return nil, fmt.Errorf("%w: world params: %v", ErrSegment, err)
	}
	if w.Graph, err = readGraphPayload(d); err != nil {
		return nil, err
	}
	if w.KB, err = readKB(d); err != nil {
		return nil, err
	}
	nUsers, nEnt := w.Graph.NumNodes(), w.KB.NumEntities()
	corpus, err := readTweetsPayload(d)
	if err != nil {
		return nil, err
	}
	for i := range corpus {
		tw := &corpus[i]
		if tw.User < 0 || int(tw.User) >= nUsers {
			return nil, fmt.Errorf("%w: corpus tweet %d: user %d out of range [0,%d)", ErrSegment, tw.ID, tw.User, nUsers)
		}
		for _, m := range tw.Mentions {
			if m.Truth < kb.NoEntity || int(m.Truth) >= nEnt {
				return nil, fmt.Errorf("%w: corpus tweet %d: entity %d out of range", ErrSegment, tw.ID, m.Truth)
			}
		}
	}
	w.Store = tweets.NewStore(corpus)

	cnt, isNil, err := d.list(4+8+8, "events")
	if err != nil {
		return nil, err
	}
	if !isNil {
		w.Events = make([]synth.Event, cnt)
	}
	for i := range w.Events {
		e, start, end := d.take32(), d.take64(), d.take64()
		if int32(e) < 0 || int(int32(e)) >= nEnt {
			return nil, fmt.Errorf("%w: event %d: entity %d out of range [0,%d)", ErrSegment, i, int32(e), nEnt)
		}
		w.Events[i] = synth.Event{Entity: kb.EntityID(e), Start: int64(start), End: int64(end)}
	}
	if w.EntityTopic, err = readInts(d, "entity topics"); err != nil {
		return nil, err
	}
	if w.UserTopic, err = readInts(d, "user topics"); err != nil {
		return nil, err
	}
	if cnt, isNil, err = d.list(4, "broadcaster topics"); err != nil {
		return nil, err
	}
	if !isNil {
		w.Broadcasters = make([][]kb.UserID, cnt)
	}
	for t := range w.Broadcasters {
		m, isNil, err := d.list(4, "broadcasters")
		if err != nil {
			return nil, err
		}
		if isNil {
			continue
		}
		if w.Broadcasters[t], err = readIDs(d, m, nUsers, "broadcaster"); err != nil {
			return nil, fmt.Errorf("topic %d: %w", t, err)
		}
	}
	if cnt, isNil, err = d.list(4, "entity surface lists"); err != nil {
		return nil, err
	}
	if !isNil {
		w.SurfacesOf = make([][]string, cnt)
	}
	for e := range w.SurfacesOf {
		m, isNil, err := d.list(2, "entity surfaces")
		if err != nil {
			return nil, err
		}
		if !isNil {
			w.SurfacesOf[e] = make([]string, m)
		}
		for i := range w.SurfacesOf[e] {
			if w.SurfacesOf[e][i], err = d.str(); err != nil {
				return nil, err
			}
		}
	}
	return w, nil
}

// readKB decodes the kb section through kb.Builder, rejecting every id
// the builder would panic on or silently drop.
func readKB(d *decoder) (*kb.KB, error) {
	n, err := d.count32(1+2+4, "entities") // category, name length, context count
	if err != nil {
		return nil, err
	}
	b := kb.NewBuilder()
	for e := 0; e < n; e++ {
		cat, err := d.u8()
		if err != nil {
			return nil, err
		}
		if int(cat) >= kb.NumCategories {
			return nil, fmt.Errorf("%w: entity %d: category %d", ErrSegment, e, cat)
		}
		ent := kb.Entity{Category: kb.Category(cat)}
		if ent.Name, err = d.str(); err != nil {
			return nil, err
		}
		terms, isNil, err := d.list(2+4, "context terms")
		if err != nil {
			return nil, err
		}
		if !isNil {
			ent.Context = make(map[string]float32, terms)
		}
		for i := 0; i < terms; i++ {
			t, err := d.str()
			if err != nil {
				return nil, err
			}
			wt, err := d.u32()
			if err != nil {
				return nil, err
			}
			ent.Context[t] = math.Float32frombits(wt)
		}
		b.AddEntity(ent)
	}
	forms, err := d.count32(2+4, "surfaces")
	if err != nil {
		return nil, err
	}
	prev := ""
	for i := 0; i < forms; i++ {
		form, err := d.str()
		if err != nil {
			return nil, err
		}
		if i > 0 && form <= prev {
			return nil, fmt.Errorf("%w: surface %q out of order", ErrSegment, form)
		}
		prev = form
		nc, err := d.count32(4, "candidates")
		if err != nil {
			return nil, err
		}
		cands, err := readIDs(d, nc, n, "candidate")
		if err != nil {
			return nil, fmt.Errorf("surface %q: %w", form, err)
		}
		if len(cands) == 0 {
			return nil, fmt.Errorf("%w: surface %q has no candidates", ErrSegment, form)
		}
		for _, e := range cands {
			b.AddSurface(form, e)
		}
	}
	for e := 0; e < n; e++ {
		no, err := d.count32(4, "outlinks")
		if err != nil {
			return nil, err
		}
		outs, err := readIDs(d, no, n, "outlink")
		if err != nil {
			return nil, fmt.Errorf("entity %d: %w", e, err)
		}
		for _, to := range outs {
			if to == kb.EntityID(e) {
				return nil, fmt.Errorf("%w: entity %d links to itself", ErrSegment, e)
			}
			b.AddLink(kb.EntityID(e), to)
		}
	}
	return b.Build(), nil
}

// readIDs reads n ids, each in [0, limit); the caller has bounded n by
// the bytes left.
func readIDs(d *decoder, n, limit int, what string) ([]int32, error) {
	ids := make([]int32, n)
	for i := range ids {
		id := int32(d.take32())
		if id < 0 || int(id) >= limit {
			return nil, fmt.Errorf("%w: %s id %d out of range [0,%d)", ErrSegment, what, id, limit)
		}
		ids[i] = id
	}
	return ids, nil
}

func readInts(d *decoder, what string) ([]int, error) {
	n, isNil, err := d.list(4, what)
	if err != nil || isNil {
		return nil, err
	}
	xs := make([]int, n)
	for i := range xs {
		xs[i] = int(int32(d.take32()))
	}
	return xs, nil
}

// list reads a nil-preserving count (see appendList) and bounds it by
// the bytes left at elemSize bytes each.
func (d *decoder) list(elemSize int, what string) (n int, isNil bool, err error) {
	c, err := d.u32()
	if err != nil || c == 0 {
		return 0, err == nil, err
	}
	n, err = d.bound(uint64(c-1), elemSize, what)
	return n, false, err
}

// take32 and take64 read a fixed-width field the caller has already
// bounded by the bytes left (see bound), so they cannot overrun.
func (d *decoder) take32() uint32 {
	v := binary.LittleEndian.Uint32(d.b[:4])
	d.b = d.b[4:]
	return v
}

func (d *decoder) take64() uint64 {
	v := binary.LittleEndian.Uint64(d.b[:8])
	d.b = d.b[8:]
	return v
}

// str reads a u16-length string.
func (d *decoder) str() (string, error) {
	n, err := d.u16()
	if err != nil {
		return "", err
	}
	b, err := d.need(int(n))
	return string(b), err
}
