package dataguide

import (
	"fmt"
	"sort"
	"strings"

	"seda/internal/pathdict"
)

// TreeString renders the guide's path set as an indented tree, the textual
// analogue of a dataguide diagram. Repeatable paths (those that can occur
// more than once under one parent instance) are marked with '*', since
// they are exactly the fork points connection discovery exploits (§6).
func (g *Guide) TreeString(dict *pathdict.Dict) string {
	paths := g.Paths()
	// Sort by full string so parents precede children and siblings group.
	sort.Slice(paths, func(i, j int) bool { return dict.Path(paths[i]) < dict.Path(paths[j]) })
	var b strings.Builder
	fmt.Fprintf(&b, "guide %d: %d paths, %d docs\n", g.ID, len(paths), g.docs)
	for _, p := range paths {
		depth := dict.Depth(p)
		mark := ""
		if g.Repeatable(p) {
			mark = " *"
		}
		fmt.Fprintf(&b, "%s%s%s\n", strings.Repeat("  ", depth-1), dict.LeafName(p), mark)
	}
	return b.String()
}

// Summary renders one line per guide: id, size, document count, and the
// root tags it covers.
func (s *Set) Summary() string {
	dict := s.col.Dict()
	var b strings.Builder
	fmt.Fprintf(&b, "%d dataguides at threshold %.2f (%d documents, reduction %.1fx)\n",
		len(s.Guides), s.Threshold, s.col.NumLive(), s.Stats().Reduction)
	for _, g := range s.Guides {
		roots := make(map[string]struct{})
		for _, p := range g.Paths() {
			if dict.Depth(p) == 1 {
				roots[dict.LeafName(p)] = struct{}{}
			}
		}
		var names []string
		for r := range roots {
			names = append(names, "/"+r)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "  guide %3d: %4d paths %5d docs  %s\n",
			g.ID, g.Size(), g.docs, strings.Join(names, " "))
	}
	return b.String()
}
