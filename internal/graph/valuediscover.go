package graph

import (
	"sort"
	"strings"

	"seda/internal/pathdict"
	"seda/internal/xmldoc"
)

// Automatic discovery of value-based (primary key/foreign key) edges. The
// paper assumes value-based relationships are provided as input but notes
// they "can be discovered by employing algorithms to discover keys, such as
// [27, 17]" (Yu & Jagadish; GORDIAN). DiscoverValueLinks implements that
// discovery with the classic inclusion-dependency test: a path K is a key
// candidate if its values are unique and numerous; a path F references K if
// F's value set is (almost) contained in K's.

// ValueLinkOptions tunes discovery. The zero value gives sensible defaults.
type ValueLinkOptions struct {
	// MinKeyValues is the minimum number of distinct values for a key-side
	// path (default 3; tiny domains like "yes/no" never qualify).
	MinKeyValues int
	// MinSupport is the minimum number of foreign-side nodes whose value
	// resolves to a key value (default 3).
	MinSupport int
	// MinContainment is the fraction of distinct foreign values that must
	// appear on the key side (default 0.95; allows a little dirt).
	MinContainment float64
	// MaxValueLen skips long text content, which is prose rather than a
	// join value (default 64 bytes).
	MaxValueLen int
}

func (o *ValueLinkOptions) defaults() {
	if o.MinKeyValues <= 0 {
		o.MinKeyValues = 3
	}
	if o.MinSupport <= 0 {
		o.MinSupport = 3
	}
	if o.MinContainment <= 0 {
		o.MinContainment = 0.95
	}
	if o.MaxValueLen <= 0 {
		o.MaxValueLen = 64
	}
}

// ValueLinkCandidate is one discovered PK/FK relationship between two
// paths. It only proposes the link: a graph materializes it when its
// FromPath, ToPath and Label are given as a ValueLinkSpec (core's
// Config.ValueLinks), so every later fold keeps the edges.
type ValueLinkCandidate struct {
	FromPath, ToPath string  // foreign side → key side
	Label            string  // the foreign side's leaf name
	Support          int     // foreign nodes that resolved
	Containment      float64 // fraction of distinct foreign values found on the key side
}

// DiscoverValueLinks scans leaf paths, identifies key-quality paths, tests
// inclusion dependencies between leaf paths in *different* path subtrees,
// and returns the accepted pairs sorted by support; the graph is not
// modified. Only leaf nodes (no element children) participate: interior
// content is prose.
func (g *Graph) DiscoverValueLinks(opts ValueLinkOptions) []ValueLinkCandidate {
	opts.defaults()
	dict := g.col.Dict()

	type pathVals struct {
		values map[string]int // value -> nodes carrying it
		total  int
	}
	byPath := make(map[pathdict.PathID]*pathVals)
	g.col.EachNode(func(d *xmldoc.Document, n *xmldoc.Node) {
		if len(n.ChildElements()) > 0 {
			return
		}
		v := strings.TrimSpace(n.Text)
		if v == "" || len(v) > opts.MaxValueLen {
			return
		}
		pv, ok := byPath[n.Path]
		if !ok {
			pv = &pathVals{values: make(map[string]int)}
			byPath[n.Path] = pv
		}
		pv.values[v]++
		pv.total++
	})

	// Key candidates: unique values, enough of them.
	var keyPaths []pathdict.PathID
	for p, pv := range byPath {
		if len(pv.values) < opts.MinKeyValues || len(pv.values) != pv.total {
			continue
		}
		keyPaths = append(keyPaths, p)
	}
	sort.Slice(keyPaths, func(i, j int) bool { return dict.Path(keyPaths[i]) < dict.Path(keyPaths[j]) })

	var out []ValueLinkCandidate
	for fp, fv := range byPath {
		for _, kp := range keyPaths {
			if fp == kp {
				continue
			}
			// Different top-level subtrees only: intra-record repetition
			// (e.g. /country/name vs /country/capital) is not a reference.
			if dict.AncestorAtDepth(fp, 1) == dict.AncestorAtDepth(kp, 1) {
				continue
			}
			kv := byPath[kp]
			contained, support := 0, 0
			for v, nodes := range fv.values {
				if _, ok := kv.values[v]; ok {
					contained++
					support += nodes
				}
			}
			if support < opts.MinSupport {
				continue
			}
			containment := float64(contained) / float64(len(fv.values))
			if containment < opts.MinContainment {
				continue
			}
			out = append(out, ValueLinkCandidate{
				FromPath:    dict.Path(fp),
				ToPath:      dict.Path(kp),
				Label:       dict.LeafName(fp),
				Support:     support,
				Containment: containment,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		return out[i].FromPath < out[j].FromPath
	})
	return out
}
