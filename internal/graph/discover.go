package graph

import "strings"

// Link discovery (paper §3): "discovering and adding appropriate edges into
// the data graph may require preprocessing of the XML data". The fold
// (fold.go) performs that preprocessing for ID/IDREF and XLink/XPointer-
// style references, and materializes the value-based (PK/FK)
// relationships the paper assumes "are provided as input into the
// system".

// DiscoverOptions tunes link discovery. Zero value means defaults.
type DiscoverOptions struct {
	// IDAttrs are attribute names treated as node identifiers. Default:
	// "id".
	IDAttrs []string
	// IDRefAttrs are attribute names treated as intra-collection
	// references. Default: "idref", "idrefs", "ref", "refs".
	IDRefAttrs []string
	// XLinkAttrs are attribute names treated as XLink/XPointer references
	// of the form "#id". Default: "href", "xlink_href".
	XLinkAttrs []string
}

// Resolved returns a copy of o with the defaults filled in. Snapshot
// config fingerprints compare resolved options so that the zero value and
// an explicit spelling of the defaults fingerprint identically.
func (o DiscoverOptions) Resolved() DiscoverOptions {
	o.defaults()
	return o
}

func (o *DiscoverOptions) defaults() {
	if len(o.IDAttrs) == 0 {
		o.IDAttrs = []string{"id"}
	}
	if len(o.IDRefAttrs) == 0 {
		o.IDRefAttrs = []string{"idref", "idrefs", "ref", "refs"}
	}
	if len(o.XLinkAttrs) == 0 {
		o.XLinkAttrs = []string{"href", "xlink_href"}
	}
}

// ValueLinkSpec names one value-based (PK/FK) relationship: nodes at
// FromPath join nodes at ToPath on equal content, as Value edges labeled
// Label. core.ValueLink is an alias.
type ValueLinkSpec struct {
	FromPath, ToPath, Label string
}

func isOneOf(name string, set []string) bool {
	l := strings.ToLower(name)
	for _, s := range set {
		if l == s {
			return true
		}
	}
	return false
}
