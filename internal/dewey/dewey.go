// Package dewey implements Dewey order-based XML node identifiers as used
// by SEDA (Balmin et al., CIDR 2009) and originally proposed by Tatarinov et
// al. ("Storing and Querying Ordered XML Using a Relational Database
// System", SIGMOD 2002).
//
// A Dewey ID encodes the root-to-node position of an XML node: the root is
// [1], its second child is [1 2], the first child of that is [1 2 1], and so
// on. Dewey IDs give three properties SEDA depends on:
//
//   - document order is the lexicographic order of the component vectors,
//   - the ancestor relation is the prefix relation, and
//   - the lowest common ancestor of two nodes is their longest common prefix.
package dewey

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ID is a Dewey identifier: the path of 1-based child ordinals from the
// document root to a node. The zero value (nil) is the invalid ID; the
// document root is [1] by convention so that multi-rooted forests can be
// represented if ever needed.
type ID []uint32

// ErrBadDewey reports a malformed textual or binary Dewey encoding.
var ErrBadDewey = errors.New("dewey: malformed id")

// Root returns the conventional Dewey ID of a document root element.
func Root() ID { return ID{1} }

// Parse converts the dotted textual form "1.2.2.1" into an ID.
func Parse(s string) (ID, error) {
	if s == "" {
		return nil, fmt.Errorf("%w: empty string", ErrBadDewey)
	}
	parts := strings.Split(s, ".")
	id := make(ID, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 10, 32)
		if err != nil || v == 0 {
			return nil, fmt.Errorf("%w: component %q", ErrBadDewey, p)
		}
		id[i] = uint32(v)
	}
	return id, nil
}

// String renders the dotted form used throughout the paper, e.g. "1.2.2.1".
func (d ID) String() string {
	if len(d) == 0 {
		return "<invalid>"
	}
	var b strings.Builder
	for i, c := range d {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.FormatUint(uint64(c), 10))
	}
	return b.String()
}

// Level is the depth of the node; the root has level 1.
func (d ID) Level() int { return len(d) }

// IsValid reports whether d is a non-empty identifier.
func (d ID) IsValid() bool { return len(d) > 0 }

// Clone returns an independent copy of d.
func (d ID) Clone() ID {
	if d == nil {
		return nil
	}
	c := make(ID, len(d))
	copy(c, d)
	return c
}

// Child returns the Dewey ID of the ord-th (1-based) child of d.
func (d ID) Child(ord uint32) ID {
	c := make(ID, len(d)+1)
	copy(c, d)
	c[len(d)] = ord
	return c
}

// Parent returns the Dewey ID of d's parent, or nil if d is a root (or
// invalid).
func (d ID) Parent() ID {
	if len(d) <= 1 {
		return nil
	}
	return d[:len(d)-1].Clone()
}

// Compare orders two IDs in document order (pre-order): -1 if d precedes e,
// +1 if d follows e, 0 if equal. An ancestor precedes its descendants.
func Compare(d, e ID) int {
	n := len(d)
	if len(e) < n {
		n = len(e)
	}
	for i := 0; i < n; i++ {
		switch {
		case d[i] < e[i]:
			return -1
		case d[i] > e[i]:
			return 1
		}
	}
	switch {
	case len(d) < len(e):
		return -1
	case len(d) > len(e):
		return 1
	}
	return 0
}

// Equal reports whether d and e identify the same node.
func Equal(d, e ID) bool { return Compare(d, e) == 0 }

// IsAncestorOf reports whether d is a proper ancestor of e.
func (d ID) IsAncestorOf(e ID) bool {
	if len(d) >= len(e) {
		return false
	}
	for i := range d {
		if d[i] != e[i] {
			return false
		}
	}
	return true
}

// IsAncestorOrSelf reports whether d is e or an ancestor of e.
func (d ID) IsAncestorOrSelf(e ID) bool {
	if len(d) > len(e) {
		return false
	}
	for i := range d {
		if d[i] != e[i] {
			return false
		}
	}
	return true
}

// LCA returns the lowest common ancestor of d and e, i.e. their longest
// common prefix. It returns nil when the two IDs share no prefix (distinct
// roots).
func LCA(d, e ID) ID {
	n := CommonPrefixLen(d, e)
	if n == 0 {
		return nil
	}
	return d[:n].Clone()
}

// CommonPrefixLen returns the number of leading components d and e share:
// the level of their lowest common ancestor, or 0 if they have none.
func CommonPrefixLen(d, e ID) int {
	n := min(len(d), len(e))
	i := 0
	for i < n && d[i] == e[i] {
		i++
	}
	return i
}

// Prefix returns the first n components of d (an ancestor-or-self at level
// n). It panics if n exceeds the level of d.
func (d ID) Prefix(n int) ID {
	if n > len(d) {
		panic(fmt.Sprintf("dewey: prefix %d of level-%d id", n, len(d)))
	}
	return d[:n].Clone()
}

// TreeDistance is the number of parent/child edges on the path between d and
// e through their lowest common ancestor. Two equal nodes have distance 0;
// siblings have distance 2.
func TreeDistance(d, e ID) int {
	n := len(d)
	if len(e) < n {
		n = len(e)
	}
	i := 0
	for i < n && d[i] == e[i] {
		i++
	}
	return (len(d) - i) + (len(e) - i)
}

// Append returns d extended with the components of tail.
func (d ID) Append(tail ...uint32) ID {
	c := make(ID, len(d)+len(tail))
	copy(c, d)
	copy(c[len(d):], tail)
	return c
}
