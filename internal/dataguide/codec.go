package dataguide

import (
	"fmt"

	"seda/internal/graph"
	"seda/internal/pathdict"
	"seda/internal/snapcodec"
	"seda/internal/store"
)

// Binary codec (engine snapshots). The summary persists in full — guides
// with their path sets and repeatability marks, the document→guide
// assignment, and the aggregated cross-guide links — because the merge
// algorithm is order-sensitive: rebuilding from documents is the exact
// cost a snapshot exists to avoid. Path sets are written in ascending id
// order so identical summaries encode identically.

// codecVersion is the layer format version written by Encode.
const codecVersion = 1

// Encode appends the dataguide summary to w in its versioned binary form.
func (s *Set) Encode(w *snapcodec.Writer) {
	w.Int(codecVersion)
	w.F64(s.Threshold)
	w.Int(len(s.Guides))
	docs := s.GuideDocs()
	for i, g := range s.Guides {
		w.Int(len(docs[i]))
		for _, d := range docs[i] {
			w.Int(int(d))
		}
		for _, set := range [][]pathdict.PathID{g.Paths(), g.repeatable.ids()} { // ascending
			w.Int(len(set))
			for _, p := range set {
				w.Int(int(p))
			}
		}
	}
	links := s.Links()
	w.Int(len(links))
	for _, l := range links {
		w.Int(l.FromGuide)
		w.Int(l.ToGuide)
		w.Int(int(l.FromPath))
		w.Int(int(l.ToPath))
		w.Byte(byte(l.Kind))
		w.String(l.Label)
		w.Int(l.Count)
	}
}

// Decode reads a summary previously written by Encode, re-binding it to
// col, as one base part. The document→guide assignment is reconstructed
// from the guides' document lists, and the base's link tally from the
// links.
//
//seda:constructor
func Decode(r *snapcodec.Reader, col *store.Collection) (*Set, error) {
	if v := r.Int(); r.Err() == nil && v != codecVersion {
		return nil, fmt.Errorf("dataguide: unsupported codec version %d", v)
	}
	s := &Set{col: col, Threshold: r.F64()}
	numDocs, numPaths := col.NumDocs(), col.Dict().NumPaths()
	base := &part{guideOf: make([]int32, numDocs), tally: make(map[Link]int)}
	for i := range base.guideOf {
		base.guideOf[i] = -1
	}
	numGuides := r.Count(3)
	for i := 0; i < numGuides; i++ {
		g := &Guide{ID: i}
		nDocs := r.Count(1)
		for j := 0; j < nDocs; j++ {
			d := r.Int()
			if r.Err() != nil {
				break
			}
			if d < 0 || d >= numDocs {
				return nil, fmt.Errorf("dataguide: decode: guide %d names document %d of %d", i, d, numDocs)
			}
			if base.guideOf[d] >= 0 {
				return nil, fmt.Errorf("dataguide: decode: document %d assigned to two guides", d)
			}
			base.guideOf[d] = int32(i)
			g.docs++
		}
		var err error
		if g.size, err = decodePaths(r, &g.paths, numPaths); err != nil {
			return nil, fmt.Errorf("dataguide: decode: guide %d: %w", i, err)
		}
		if _, err = decodePaths(r, &g.repeatable, numPaths); err != nil {
			return nil, fmt.Errorf("dataguide: decode: guide %d: %w", i, err)
		}
		s.Guides = append(s.Guides, g)
	}
	var links []Link
	numLinks := r.Count(7) // two guide ids, two path ids, kind, empty label, count
	for i := 0; i < numLinks; i++ {
		l := Link{
			FromGuide: r.Int(),
			ToGuide:   r.Int(),
			FromPath:  pathdict.PathID(r.Int()),
			ToPath:    pathdict.PathID(r.Int()),
			Kind:      graph.EdgeKind(r.Byte()),
			Label:     r.String(),
			Count:     r.Int(),
		}
		if r.Err() != nil {
			break
		}
		if l.FromGuide >= len(s.Guides) || l.ToGuide >= len(s.Guides) {
			return nil, fmt.Errorf("dataguide: decode: link %d names guide %d/%d of %d", i, l.FromGuide, l.ToGuide, len(s.Guides))
		}
		links = append(links, l)
		key := l
		key.Count = 0
		base.tally[key] += l.Count
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("dataguide: decode: %w", err)
	}
	base.guides = s.Guides
	s.parts = []*part{base}
	s.links.Store(&links)
	return s, nil
}

// decodePaths reads a counted path-id list into set and returns the number
// of distinct members. Ids outside the dictionary are rejected: a bitset
// is sized by its largest member, so a hostile id would be an allocation
// bomb.
//
//seda:constructor
func decodePaths(r *snapcodec.Reader, set *pathSet, numPaths int) (int, error) {
	size := 0
	for n := r.Count(1); n > 0; n-- {
		p := r.Int()
		if r.Err() != nil {
			break
		}
		if p < 1 || p > numPaths {
			return 0, fmt.Errorf("path id %d outside the dictionary's 1..%d", p, numPaths)
		}
		if set.add(pathdict.PathID(p)) {
			size++
		}
	}
	return size, nil
}
