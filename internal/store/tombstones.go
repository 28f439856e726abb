// Document tombstones: the deletion mask a generation carries (see
// ARCHITECTURE.md, "Document lifecycle"). Deleting or updating a document
// never touches the immutable shards or the stored documents — a new
// generation marks the document ids dead in a Tombstones set and every
// read path masks them out. Ids are never reused while the set is live;
// compaction (internal/core) rewrites the collection without the dead
// documents and renumbers the survivors after the first of them
// contiguously.

package store

import (
	"fmt"
	"math/bits"

	"seda/internal/pathdict"
	"seda/internal/snapcodec"
	"seda/internal/xmldoc"
)

// Tombstones is an immutable set of masked (deleted) document ids. The
// zero of the type is a nil pointer: every method is nil-tolerant and a
// nil set is empty, so unmasked collections pay nothing.
//
//seda:immutable
type Tombstones struct {
	bits []uint64 // bitmap over document ids
	n    int      // number of set bits
}

// NewTombstones returns the set holding ids (duplicates collapse). A nil
// or empty ids yields nil — the canonical empty set.
//
//seda:constructor
func NewTombstones(ids []xmldoc.DocID) *Tombstones {
	var t *Tombstones
	return t.With(ids)
}

// Has reports whether id is masked. Nil-safe; out-of-range ids are never
// masked.
func (t *Tombstones) Has(id xmldoc.DocID) bool {
	if t == nil || id < 0 {
		return false
	}
	w := int(id) >> 6
	if w >= len(t.bits) {
		return false
	}
	return t.bits[w]&(1<<(uint(id)&63)) != 0
}

// Len returns the number of masked ids.
func (t *Tombstones) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// IDs returns the masked ids in ascending order (nil for the empty set).
func (t *Tombstones) IDs() []xmldoc.DocID {
	if t == nil || t.n == 0 {
		return nil
	}
	out := make([]xmldoc.DocID, 0, t.n)
	for w, word := range t.bits {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			out = append(out, xmldoc.DocID(w*64+b))
			word &^= 1 << uint(b)
		}
	}
	return out
}

// AnyInRange reports whether any masked id falls in [lo, hi). It tests a
// bitmap word at a time.
func (t *Tombstones) AnyInRange(lo, hi int) bool {
	if t == nil || t.n == 0 {
		return false
	}
	lo, hi = max(lo, 0), min(hi, len(t.bits)*64)
	for lo < hi {
		word := t.bits[lo>>6] >> (uint(lo) & 63)
		if n := hi - lo; n < 64 {
			word &= 1<<uint(n) - 1
		}
		if word != 0 {
			return true
		}
		lo = (lo>>6 + 1) << 6
	}
	return false
}

// FirstAdded returns the smallest id masked in the receiver but not in
// prev, and false when the receiver adds none: the oldest document a
// later generation's delete or update killed. It compares a bitmap word
// at a time.
func (t *Tombstones) FirstAdded(prev *Tombstones) (xmldoc.DocID, bool) {
	if t.Len() == prev.Len() {
		return 0, false // tombstones only grow from a generation to the next
	}
	old := prev.words()
	for w, word := range t.words() {
		if w < len(old) {
			word &^= old[w]
		}
		if word != 0 {
			return xmldoc.DocID(w*64 + bits.TrailingZeros64(word)), true
		}
	}
	return 0, false
}

// words returns the bitmap (nil for the empty set).
func (t *Tombstones) words() []uint64 {
	if t == nil {
		return nil
	}
	return t.bits
}

// With returns the union of the receiver and ids; the receiver is never
// modified. Returns the receiver itself when ids adds nothing.
//
//seda:constructor
func (t *Tombstones) With(ids []xmldoc.DocID) *Tombstones {
	fresh := ids[:0:0]
	for _, id := range ids {
		if id >= 0 && !t.Has(id) {
			fresh = append(fresh, id)
		}
	}
	if len(fresh) == 0 {
		return t
	}
	max := fresh[0]
	for _, id := range fresh {
		if id > max {
			max = id
		}
	}
	words := int(max)/64 + 1
	nt := &Tombstones{bits: make([]uint64, words)}
	if t != nil {
		if len(t.bits) > words {
			nt.bits = make([]uint64, len(t.bits))
		}
		copy(nt.bits, t.bits)
		nt.n = t.n
	}
	for _, id := range fresh {
		w, b := int(id)>>6, uint(id)&63
		if nt.bits[w]&(1<<b) == 0 {
			nt.bits[w] |= 1 << b
			nt.n++
		}
	}
	return nt
}

// tombstonesCodecVersion versions the tombstone-section payload inside
// engine snapshots (SEDASNAP v4's "tombstones" section).
const tombstonesCodecVersion = 1

// Encode appends the set to w: version, count, then the ids as
// strictly-increasing gap deltas (first id verbatim, then id-prev-1).
func (t *Tombstones) Encode(w *snapcodec.Writer) {
	w.Int(tombstonesCodecVersion)
	ids := t.IDs()
	w.Int(len(ids))
	prev := xmldoc.DocID(-1)
	for _, id := range ids {
		w.Int(int(id - prev - 1))
		prev = id
	}
}

// DecodeTombstones reads a set written by Encode. Every id must be unique,
// ascending, and below numDocs; the count is bounded by the reader's
// remaining bytes (snapcodec.Reader.Count) and by numDocs, so hostile
// counts cannot drive allocation.
//
//seda:constructor
func DecodeTombstones(r *snapcodec.Reader, numDocs int) (*Tombstones, error) {
	if v := r.Int(); r.Err() == nil && v != tombstonesCodecVersion {
		return nil, fmt.Errorf("store: unsupported tombstones codec version %d", v)
	}
	n := r.Count(1)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("store: decode tombstones: %w", err)
	}
	if n > numDocs {
		return nil, fmt.Errorf("store: decode tombstones: %d tombstones for %d documents", n, numDocs)
	}
	ids := make([]xmldoc.DocID, 0, n)
	prev := -1
	for i := 0; i < n; i++ {
		gap := r.Int()
		if r.Err() != nil {
			break
		}
		id := prev + 1 + gap
		if gap < 0 || id >= numDocs {
			return nil, fmt.Errorf("store: decode tombstones: document id %d outside collection of %d", id, numDocs)
		}
		ids = append(ids, xmldoc.DocID(id))
		prev = id
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("store: decode tombstones: %w", err)
	}
	if len(ids) == 0 {
		return nil, nil
	}
	return NewTombstones(ids), nil
}

// WithTombstones returns a new collection masking ids on top of the
// receiver's existing tombstones. Documents and the dictionary are shared
// (the doc slice itself is reused — masking never moves a document); the
// per-path statistics and node count are copied and the newly dead
// documents' contributions subtracted, so PathDocFreq, PathOccurrences,
// and NumNodes describe the live corpus. Ids must be in range and not
// already masked.
//
//seda:constructor
func (c *Collection) WithTombstones(ids []xmldoc.DocID) (*Collection, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("store: no documents to mask")
	}
	seen := make(map[xmldoc.DocID]struct{}, len(ids))
	for _, id := range ids {
		if int(id) < 0 || int(id) >= len(c.docs) {
			return nil, fmt.Errorf("store: masking document %d outside collection of %d", id, len(c.docs))
		}
		if c.dead.Has(id) {
			return nil, fmt.Errorf("store: document %d is already masked", id)
		}
		if _, dup := seen[id]; dup {
			return nil, fmt.Errorf("store: duplicate document %d in mask", id)
		}
		seen[id] = struct{}{}
	}
	nc := &Collection{
		dict:        c.dict,
		docs:        c.docs,
		pathDocFreq: make(map[pathdict.PathID]int, len(c.pathDocFreq)),
		pathOcc:     make(map[pathdict.PathID]int, len(c.pathOcc)),
		nodeCount:   c.nodeCount,
		dead:        c.dead.With(ids),
	}
	for p, n := range c.pathDocFreq {
		nc.pathDocFreq[p] = n
	}
	for p, n := range c.pathOcc {
		nc.pathOcc[p] = n
	}
	for _, id := range ids {
		docSeen := make(map[pathdict.PathID]struct{})
		c.docs[id].Walk(func(n *xmldoc.Node) bool {
			nc.nodeCount--
			if occ := nc.pathOcc[n.Path] - 1; occ > 0 {
				nc.pathOcc[n.Path] = occ
			} else {
				delete(nc.pathOcc, n.Path)
			}
			if _, ok := docSeen[n.Path]; !ok {
				docSeen[n.Path] = struct{}{}
				if df := nc.pathDocFreq[n.Path] - 1; df > 0 {
					nc.pathDocFreq[n.Path] = df
				} else {
					delete(nc.pathDocFreq, n.Path)
				}
			}
			return true
		})
	}
	return nc, nil
}

// AttachTombstones returns a collection identical to the receiver but
// carrying dead as its tombstone set WITHOUT adjusting statistics — the
// snapshot load path, where the persisted statistics were masked before
// the save and must not be subtracted twice. A nil dead returns the
// receiver.
//
//seda:constructor
func (c *Collection) AttachTombstones(dead *Tombstones) (*Collection, error) {
	if dead.Len() == 0 {
		return c, nil
	}
	if c.dead.Len() != 0 {
		return nil, fmt.Errorf("store: collection already carries tombstones")
	}
	for _, id := range dead.IDs() {
		if int(id) >= len(c.docs) {
			return nil, fmt.Errorf("store: tombstone %d outside collection of %d", id, len(c.docs))
		}
	}
	nc := *c
	nc.dead = dead
	return &nc, nil
}

// Tombstones returns the collection's tombstone set (nil when unmasked).
func (c *Collection) Tombstones() *Tombstones { return c.dead }

// NumLive returns the number of live documents (NumDocs minus tombstones).
func (c *Collection) NumLive() int { return len(c.docs) - c.dead.Len() }

// LiveDocs returns the live documents in id order. Without tombstones it
// returns the collection's own slice; either way the result must not be
// modified.
func (c *Collection) LiveDocs() []*xmldoc.Document { return c.LiveDocsFrom(0) }

// LiveDocsFrom returns the live documents with id lo or above, in id
// order: the documents a fold restarted at lo covers. Without tombstones
// in that range it returns a slice of the collection's own; either way
// the result must not be modified.
func (c *Collection) LiveDocsFrom(lo xmldoc.DocID) []*xmldoc.Document {
	tail := c.docs[min(int(lo), len(c.docs)):]
	if !c.dead.AnyInRange(int(lo), len(c.docs)) {
		return tail
	}
	out := make([]*xmldoc.Document, 0, len(tail))
	for _, d := range tail {
		if !c.dead.Has(d.ID) {
			out = append(out, d)
		}
	}
	return out
}

// LiveIDsByName returns the ids of live documents named name, ascending.
func (c *Collection) LiveIDsByName(name string) []xmldoc.DocID {
	var out []xmldoc.DocID
	for _, d := range c.docs {
		if d.Name == name && !c.dead.Has(d.ID) {
			out = append(out, d.ID)
		}
	}
	return out
}

// Compacted returns a new collection over the live documents only, and
// restart, the lowest masked id: the documents before it are shared with
// their ids unchanged, and the survivors from it on are renumbered
// contiguously in their original relative order, in new document shells
// over the same node trees (nodes are immutable, so both generations read
// the same trees). The per-path statistics and node count are shared as
// they are, since a masked collection's already count only its live
// documents; no node is walked. The result is indistinguishable from a
// from-scratch collection over the surviving documents. The receiver must
// carry tombstones.
//
//seda:constructor
func (c *Collection) Compacted() (*Collection, xmldoc.DocID) {
	restart, _ := c.dead.FirstAdded(nil) // the lowest masked id
	docs := c.docs[:restart:restart]
	if n := c.NumLive(); n > int(restart) {
		docs = make([]*xmldoc.Document, restart, n)
		copy(docs, c.docs)
	}
	nc := &Collection{
		dict:        c.dict,
		docs:        docs,
		pathDocFreq: c.pathDocFreq,
		pathOcc:     c.pathOcc,
		nodeCount:   c.nodeCount,
	}
	for _, d := range c.docs[restart:] {
		if !c.dead.Has(d.ID) {
			nc.docs = append(nc.docs, &xmldoc.Document{ID: xmldoc.DocID(len(nc.docs)), Name: d.Name, Root: d.Root})
		}
	}
	return nc, restart
}
