// Package xmldoc implements the XML document model of SEDA (paper §3).
//
// Documents are ordered trees of element and attribute nodes. Every node
// carries a Dewey identifier (document-order position), an interned path id
// (its context: the root-to-node label path), and its direct text. The paper
// treats attributes as a special case of parent/child (§3 footnote 6), so
// attributes appear as the first children of their element.
//
// Two node-derived strings from Definition 2 are provided:
//
//	context(n) — the root-to-leaf label path of n (via the path dictionary)
//	content(n) — the concatenation of all text in n's subtree
package xmldoc

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"iter"
	"strings"

	"seda/internal/dewey"
	"seda/internal/pathdict"
)

// DocID identifies a document within a collection.
type DocID int32

// Kind distinguishes element from attribute nodes.
type Kind uint8

// Node kinds.
const (
	Element Kind = iota
	Attribute
)

// ErrMalformed reports unparsable XML input.
var ErrMalformed = errors.New("xmldoc: malformed xml")

// Node is a single XML element or attribute.
type Node struct {
	Tag      string
	Kind     Kind
	Text     string // direct character data (attribute value for attributes)
	Children []*Node
	Dewey    dewey.ID
	Path     pathdict.PathID
	Parent   *Node
}

// Document is a parsed XML document with Dewey ids and interned paths
// assigned to every node.
type Document struct {
	ID   DocID
	Name string
	Root *Node
}

// NodeRef addresses a node across a collection.
type NodeRef struct {
	Doc   DocID
	Dewey dewey.ID
}

// String renders a NodeRef like "n3@1.2.2.1".
func (r NodeRef) String() string { return fmt.Sprintf("n%d@%s", r.Doc, r.Dewey) }

// OwnDeweys moves the Dewey ids of the refs that refs yields into one
// slab of their own, each capped at its length, so they keep alive none of
// the storage they were copied from: results hold a node's id without
// pinning an index's posting or cache storage. refs is ranged over twice
// and must yield the same refs both times.
func OwnDeweys(refs iter.Seq[*NodeRef]) {
	n := 0
	for r := range refs {
		n += len(r.Dewey)
	}
	slab := make(dewey.ID, n)
	for r := range refs {
		k := copy(slab, r.Dewey)
		r.Dewey, slab = slab[:k:k], slab[k:]
	}
}

// Less orders NodeRefs by (doc, document order).
func (r NodeRef) Less(o NodeRef) bool {
	if r.Doc != o.Doc {
		return r.Doc < o.Doc
	}
	return dewey.Compare(r.Dewey, o.Dewey) < 0
}

// Equal reports whether two refs address the same node.
func (r NodeRef) Equal(o NodeRef) bool {
	return r.Doc == o.Doc && dewey.Equal(r.Dewey, o.Dewey)
}

// Parse reads one XML document from data, assigning Dewey ids and interning
// every root-to-node path in dict. Character data is trimmed of surrounding
// whitespace; pure-whitespace runs are dropped.
func Parse(data []byte, dict *pathdict.Dict) (*Document, error) {
	return ParseReader(strings.NewReader(string(data)), dict)
}

// ParseReader is Parse reading from an io.Reader.
func ParseReader(r io.Reader, dict *pathdict.Dict) (*Document, error) {
	dec := xml.NewDecoder(r)
	var root *Node
	var stack []*Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := &Node{Tag: t.Name.Local, Kind: Element}
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				n.Children = append(n.Children, &Node{
					Tag:    a.Name.Local,
					Kind:   Attribute,
					Text:   a.Value,
					Parent: n,
				})
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("%w: multiple root elements", ErrMalformed)
				}
				root = n
			} else {
				top := stack[len(stack)-1]
				n.Parent = top
				top.Children = append(top.Children, n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("%w: unexpected end element %s", ErrMalformed, t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) == 0 {
				continue
			}
			txt := strings.TrimSpace(string(t))
			if txt == "" {
				continue
			}
			top := stack[len(stack)-1]
			if top.Text == "" {
				top.Text = txt
			} else {
				top.Text += " " + txt
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("%w: no root element", ErrMalformed)
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("%w: unclosed element %s", ErrMalformed, stack[len(stack)-1].Tag)
	}
	doc := &Document{Root: root}
	Finalize(doc, dict)
	return doc, nil
}

// Finalize assigns Dewey ids and path ids to every node of a document whose
// tree was built programmatically (see Builder). It is idempotent.
func Finalize(doc *Document, dict *pathdict.Dict) {
	assign(doc.Root, dewey.Root(), pathdict.InvalidPath, dict)
}

func assign(n *Node, id dewey.ID, parentPath pathdict.PathID, dict *pathdict.Dict) {
	n.Dewey = id
	n.Path = dict.Extend(parentPath, n.Tag)
	for i, c := range n.Children {
		c.Parent = n
		assign(c, id.Child(uint32(i+1)), n.Path, dict)
	}
}

// Content returns content(n): the concatenation of the direct text of n and
// all its descendants in document order, space-separated (Definition 2).
func (n *Node) Content() string {
	var b strings.Builder
	n.EachText(func(text string) {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(text)
	})
	return b.String()
}

// EachText calls f with each non-empty direct text of n's subtree in
// document order: the pieces Content joins.
func (n *Node) EachText(f func(string)) {
	if n.Text != "" {
		f(n.Text)
	}
	for _, c := range n.Children {
		c.EachText(f)
	}
}

// FindByDewey returns the node with the given Dewey id, or nil. The lookup
// walks child ordinals, so it is O(depth).
func (d *Document) FindByDewey(id dewey.ID) *Node {
	if len(id) == 0 || id[0] != 1 {
		return nil
	}
	n := d.Root
	for _, ord := range id[1:] {
		i := int(ord) - 1
		if n == nil || i < 0 || i >= len(n.Children) {
			return nil
		}
		n = n.Children[i]
	}
	return n
}

// Walk visits every node of the document in document order. Returning false
// from fn prunes the subtree below the node.
func (d *Document) Walk(fn func(*Node) bool) { walk(d.Root, fn) }

func walk(n *Node, fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		walk(c, fn)
	}
}

// CountNodes returns the number of nodes (elements + attributes) in the
// document.
func (d *Document) CountNodes() int {
	n := 0
	d.Walk(func(*Node) bool { n++; return true })
	return n
}

// DistinctPaths returns the set of distinct path ids occurring in the
// document — the document's dataguide in the paper's representation (§6.1:
// "a list of full root-to-leaf paths").
func (d *Document) DistinctPaths() []pathdict.PathID {
	seen := make(map[pathdict.PathID]struct{})
	var out []pathdict.PathID
	d.Walk(func(n *Node) bool {
		if _, ok := seen[n.Path]; !ok {
			seen[n.Path] = struct{}{}
			out = append(out, n.Path)
		}
		return true
	})
	return out
}

// Attr returns the value of the named attribute of n and whether it exists.
func (n *Node) Attr(name string) (string, bool) {
	for _, c := range n.Children {
		if c.Kind == Attribute && c.Tag == name {
			return c.Text, true
		}
	}
	return "", false
}

// ChildElements returns the element (non-attribute) children of n.
func (n *Node) ChildElements() []*Node {
	out := make([]*Node, 0, len(n.Children))
	for _, c := range n.Children {
		if c.Kind == Element {
			out = append(out, c)
		}
	}
	return out
}

// FirstChild returns the first child element with the given tag, or nil.
func (n *Node) FirstChild(tag string) *Node {
	for _, c := range n.Children {
		if c.Kind == Element && c.Tag == tag {
			return c
		}
	}
	return nil
}

// WriteXML serializes the document as indented XML.
func (d *Document) WriteXML(w io.Writer) error {
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	return writeNode(w, d.Root, 0)
}

func writeNode(w io.Writer, n *Node, depth int) error {
	ind := strings.Repeat("  ", depth)
	var attrs strings.Builder
	var elems []*Node
	for _, c := range n.Children {
		if c.Kind == Attribute {
			fmt.Fprintf(&attrs, " %s=%q", c.Tag, c.Text)
		} else {
			elems = append(elems, c)
		}
	}
	if len(elems) == 0 {
		if n.Text == "" {
			_, err := fmt.Fprintf(w, "%s<%s%s/>\n", ind, n.Tag, attrs.String())
			return err
		}
		_, err := fmt.Fprintf(w, "%s<%s%s>%s</%s>\n", ind, n.Tag, attrs.String(), escape(n.Text), n.Tag)
		return err
	}
	if _, err := fmt.Fprintf(w, "%s<%s%s>", ind, n.Tag, attrs.String()); err != nil {
		return err
	}
	if n.Text != "" {
		if _, err := io.WriteString(w, escape(n.Text)); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	for _, c := range elems {
		if err := writeNode(w, c, depth+1); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s</%s>\n", ind, n.Tag)
	return err
}

func escape(s string) string {
	var b strings.Builder
	if err := xml.EscapeText(&b, []byte(s)); err != nil {
		return s
	}
	return b.String()
}
