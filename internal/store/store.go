// Package store implements SEDA's storage component (paper §4, Figure 4).
//
// The paper stores XML in DB2 pureXML and keeps "several indexes to
// efficiently support these operations". This package provides the
// equivalent substrate: a document collection with Dewey-addressed node
// retrieval, per-path corpus statistics (document frequency and occurrence
// counts used by the context summary, §5), and binary persistence. The
// full-text indexes live in internal/index and are built over a Collection.
package store

import (
	"fmt"

	"seda/internal/pathdict"
	"seda/internal/xmldoc"
)

// Collection is an ordered set of XML documents sharing one path
// dictionary. Documents are added once (not concurrency-safe during
// loading); afterwards all read methods are safe for concurrent use and
// the collection is immutable — generations share document objects, so
// post-publish writes are sedalint diagnostics (genimmutable).
//
//seda:immutable
type Collection struct {
	dict *pathdict.Dict
	docs []*xmldoc.Document

	pathDocFreq map[pathdict.PathID]int // # LIVE documents containing the path
	pathOcc     map[pathdict.PathID]int // node occurrences of the path in live documents
	nodeCount   int                     // nodes across live documents

	// dead is the tombstone set masking deleted documents (nil when every
	// document is live — the common case). Masked documents keep their ids
	// and stay resolvable through Doc/Node (sessions pinned to older
	// generations still read them) but are skipped by EachNode, LiveDocs,
	// and the statistics above; see tombstones.go.
	dead *Tombstones
}

// NewCollection returns an empty collection with a fresh dictionary.
func NewCollection() *Collection {
	return &Collection{
		dict:        pathdict.New(),
		pathDocFreq: make(map[pathdict.PathID]int),
		pathOcc:     make(map[pathdict.PathID]int),
	}
}

// Dict returns the shared path dictionary.
func (c *Collection) Dict() *pathdict.Dict { return c.dict }

// AddXML parses data and adds the document under the given name.
func (c *Collection) AddXML(name string, data []byte) (xmldoc.DocID, error) {
	doc, err := xmldoc.Parse(data, c.dict)
	if err != nil {
		return 0, fmt.Errorf("store: adding %q: %w", name, err)
	}
	doc.Name = name
	return c.AddDocument(doc), nil
}

// AddDocument registers a document already finalized against the
// collection's dictionary (see xmldoc.Build) and returns its id.
//
//seda:constructor
func (c *Collection) AddDocument(doc *xmldoc.Document) xmldoc.DocID {
	id := xmldoc.DocID(len(c.docs))
	doc.ID = id
	c.docs = append(c.docs, doc)

	seen := make(map[pathdict.PathID]struct{})
	doc.Walk(func(n *xmldoc.Node) bool {
		c.nodeCount++
		c.pathOcc[n.Path]++
		if _, ok := seen[n.Path]; !ok {
			seen[n.Path] = struct{}{}
			c.pathDocFreq[n.Path]++
		}
		return true
	})
	return id
}

// Extend returns a new collection holding the receiver's documents plus
// docs, appended in order. The new collection shares the receiver's path
// dictionary (append-only, internally synchronized) and document objects,
// but carries its own copies of the per-path statistics, so the receiver
// is never modified: readers of the old generation keep a fully
// consistent view while the new one is assembled (the
// immutability-per-generation contract, see ARCHITECTURE.md).
//
// docs must already be finalized against the receiver's dictionary
// (xmldoc.Parse with c.Dict(), or xmldoc.Finalize); they are assigned the
// next document ids, exactly as if they had been added to a from-scratch
// collection after the existing documents.
//
//seda:constructor
func (c *Collection) Extend(docs []*xmldoc.Document) *Collection {
	nc := &Collection{
		dict:        c.dict,
		docs:        make([]*xmldoc.Document, len(c.docs), len(c.docs)+len(docs)),
		pathDocFreq: make(map[pathdict.PathID]int, len(c.pathDocFreq)),
		pathOcc:     make(map[pathdict.PathID]int, len(c.pathOcc)),
		nodeCount:   c.nodeCount,
		dead:        c.dead, // tombstones carry forward (immutable set)
	}
	copy(nc.docs, c.docs)
	for p, n := range c.pathDocFreq {
		nc.pathDocFreq[p] = n
	}
	for p, n := range c.pathOcc {
		nc.pathOcc[p] = n
	}
	for _, d := range docs {
		nc.AddDocument(d)
	}
	return nc
}

// NumDocs returns the size of the document-id space, INCLUDING masked
// (tombstoned) documents — shard ranges, codecs, and NodeRef resolution
// all work in id space. Use NumLive for the live corpus size.
func (c *Collection) NumDocs() int { return len(c.docs) }

// NumNodes returns the total number of nodes across live documents.
func (c *Collection) NumNodes() int { return c.nodeCount }

// Doc returns the document with the given id, or nil if out of range.
func (c *Collection) Doc(id xmldoc.DocID) *xmldoc.Document {
	if int(id) < 0 || int(id) >= len(c.docs) {
		return nil
	}
	return c.docs[id]
}

// Docs returns the documents in id order. The returned slice must not be
// modified.
func (c *Collection) Docs() []*xmldoc.Document { return c.docs }

// Node resolves a NodeRef to its node, or nil if the ref is dangling.
func (c *Collection) Node(ref xmldoc.NodeRef) *xmldoc.Node {
	doc := c.Doc(ref.Doc)
	if doc == nil {
		return nil
	}
	return doc.FindByDewey(ref.Dewey)
}

// Content returns content(n) for the referenced node, or "" for dangling
// refs. This is the store access the cube extraction step performs to fetch
// values (paper §7 Step 3).
func (c *Collection) Content(ref xmldoc.NodeRef) string {
	n := c.Node(ref)
	if n == nil {
		return ""
	}
	return n.Content()
}

// PathOf returns the path id of the referenced node, or InvalidPath.
func (c *Collection) PathOf(ref xmldoc.NodeRef) pathdict.PathID {
	n := c.Node(ref)
	if n == nil {
		return pathdict.InvalidPath
	}
	return n.Path
}

// PathDocFreq returns the number of documents containing at least one node
// with the given path. The paper's §1 example: "/country ... occurs in 1577
// out of 1600 documents".
func (c *Collection) PathDocFreq(p pathdict.PathID) int { return c.pathDocFreq[p] }

// PathOccurrences returns the total number of nodes with the given path
// across the collection (the count SEDA stores per path, §5).
func (c *Collection) PathOccurrences(p pathdict.PathID) int { return c.pathOcc[p] }

// Stats summarizes the collection.
type Stats struct {
	NumDocs  int
	NumNodes int
	NumPaths int // distinct root-to-leaf paths (1984 for the paper's WFB)
	NumTags  int
}

// Stats returns collection-level statistics.
func (c *Collection) Stats() Stats {
	return Stats{
		NumDocs:  len(c.docs),
		NumNodes: c.nodeCount,
		NumPaths: c.dict.NumPaths(),
		NumTags:  c.dict.NumTags(),
	}
}

// EachNode visits every node of every LIVE document; used by index and
// graph builders, which must never see masked documents.
func (c *Collection) EachNode(fn func(doc *xmldoc.Document, n *xmldoc.Node)) {
	for _, d := range c.docs {
		if c.dead.Has(d.ID) {
			continue
		}
		d.Walk(func(n *xmldoc.Node) bool {
			fn(d, n)
			return true
		})
	}
}

// RefOf builds the NodeRef for a node within a document.
func RefOf(doc *xmldoc.Document, n *xmldoc.Node) xmldoc.NodeRef {
	return xmldoc.NodeRef{Doc: doc.ID, Dewey: n.Dewey}
}

// Verify checks internal consistency: every node's Dewey id resolves back to
// itself and every path id is renderable. It is used by tests and after
// Decode.
func (c *Collection) Verify() error {
	for _, d := range c.docs {
		var fail error
		d.Walk(func(n *xmldoc.Node) bool {
			if got := d.FindByDewey(n.Dewey); got != n {
				fail = fmt.Errorf("store: doc %d node %s does not resolve to itself", d.ID, n.Dewey)
				return false
			}
			if c.dict.Path(n.Path) == "" {
				fail = fmt.Errorf("store: doc %d node %s has unrenderable path", d.ID, n.Dewey)
				return false
			}
			return true
		})
		if fail != nil {
			return fail
		}
	}
	return nil
}
