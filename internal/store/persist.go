package store

import (
	"fmt"
	"sort"

	"seda/internal/pathdict"
	"seda/internal/snapcodec"
	"seda/internal/xmldoc"
)

// The collection's binary codec (Encode/Decode), used inside engine
// snapshots. Besides the documents it persists the per-path corpus
// statistics, so a loaded collection costs O(read), not O(rescan).
// Documents are flattened to pre-order node lists (parent pointers and
// Dewey ids are reconstructed on load), which keeps the format free of
// cycles and independent of in-memory layout.

// codecVersion is the snapshot-layer format version written by Encode.
const codecVersion = 1

// Encode appends the collection to w in its versioned binary form. The
// shared path dictionary is NOT included — it is its own snapshot layer,
// encoded before the collection — so node tags are written as interned tag
// ids and paths as interned path ids.
func (c *Collection) Encode(w *snapcodec.Writer) {
	w.Int(codecVersion)
	w.Int(len(c.docs))
	for _, d := range c.docs {
		w.String(d.Name)
		w.Int(d.CountNodes())
		d.Walk(func(n *xmldoc.Node) bool {
			w.Int(int(c.dict.LookupTag(n.Tag)))
			w.Byte(byte(n.Kind))
			w.String(n.Text)
			w.Int(len(n.Children))
			return true
		})
	}
	w.Int(c.nodeCount)
	encodePathCounts(w, c.pathDocFreq)
	encodePathCounts(w, c.pathOcc)
}

func encodePathCounts(w *snapcodec.Writer, m map[pathdict.PathID]int) {
	ids := make([]pathdict.PathID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.Int(len(ids))
	for _, id := range ids {
		w.Int(int(id))
		w.Int(m[id])
	}
}

// Decode reads a collection previously written by Encode, resolving tag
// ids against dict (the already-decoded dictionary layer). Dewey ids and
// path ids are reassigned by xmldoc.Finalize — the dictionary already
// holds every path, so the assignment reproduces the encoder's ids — and
// the persisted statistics are installed directly instead of rescanned.
//
//seda:constructor
func Decode(r *snapcodec.Reader, dict *pathdict.Dict) (*Collection, error) {
	if v := r.Int(); r.Err() == nil && v != codecVersion {
		return nil, fmt.Errorf("store: unsupported codec version %d", v)
	}
	c := &Collection{
		dict:        dict,
		pathDocFreq: make(map[pathdict.PathID]int),
		pathOcc:     make(map[pathdict.PathID]int),
	}
	numDocs := r.Count(2)
	for i := 0; i < numDocs; i++ {
		name := r.String()
		numNodes := r.Count(4) // tag id + kind + text len + child count minimum
		root, rest, err := decodeNode(r, dict, numNodes, 0)
		if err != nil {
			return nil, fmt.Errorf("store: decode %q: %w", name, err)
		}
		if rest != 0 {
			return nil, fmt.Errorf("store: decode %q: %d trailing nodes", name, rest)
		}
		doc := &xmldoc.Document{ID: xmldoc.DocID(i), Name: name, Root: root}
		xmldoc.Finalize(doc, dict)
		c.docs = append(c.docs, doc)
	}
	c.nodeCount = r.Int()
	if err := decodePathCounts(r, dict, c.pathDocFreq); err != nil {
		return nil, err
	}
	if err := decodePathCounts(r, dict, c.pathOcc); err != nil {
		return nil, err
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("store: decode: %w", err)
	}
	if err := c.Verify(); err != nil {
		return nil, err
	}
	return c, nil
}

// maxDecodeDepth bounds tree nesting so a hostile stream of single-child
// chains cannot exhaust the goroutine stack through recursion.
const maxDecodeDepth = 10000

// decodeNode reads one node and its subtree; budget is the number of nodes
// the document claims to still contain, returned decremented so cycles of
// hostile child counts terminate.
func decodeNode(r *snapcodec.Reader, dict *pathdict.Dict, budget, depth int) (*xmldoc.Node, int, error) {
	if budget <= 0 {
		return nil, 0, fmt.Errorf("node count exceeded")
	}
	if depth > maxDecodeDepth {
		return nil, 0, fmt.Errorf("tree deeper than %d", maxDecodeDepth)
	}
	budget--
	tag := dict.Tag(pathdict.TagID(r.Int()))
	kind := xmldoc.Kind(r.Byte())
	text := r.String()
	children := r.Count(3)
	if err := r.Err(); err != nil {
		return nil, 0, err
	}
	if tag == "" {
		return nil, 0, fmt.Errorf("unknown tag id")
	}
	if kind != xmldoc.Element && kind != xmldoc.Attribute {
		return nil, 0, fmt.Errorf("invalid node kind %d", kind)
	}
	n := &xmldoc.Node{Tag: tag, Kind: kind, Text: text}
	for i := 0; i < children; i++ {
		child, rest, err := decodeNode(r, dict, budget, depth+1)
		if err != nil {
			return nil, 0, err
		}
		budget = rest
		child.Parent = n
		n.Children = append(n.Children, child)
	}
	return n, budget, nil
}

func decodePathCounts(r *snapcodec.Reader, dict *pathdict.Dict, m map[pathdict.PathID]int) error {
	n := r.Count(2)
	for i := 0; i < n; i++ {
		id := pathdict.PathID(r.Int())
		count := r.Int()
		if r.Err() != nil {
			break
		}
		if dict.Path(id) == "" {
			return fmt.Errorf("store: decode: unknown path id %d in statistics", id)
		}
		if _, dup := m[id]; dup {
			return fmt.Errorf("store: decode: duplicate path id %d in statistics", id)
		}
		m[id] = count
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("store: decode: %w", err)
	}
	return nil
}
