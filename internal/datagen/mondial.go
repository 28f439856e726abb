package datagen

import (
	"fmt"

	"seda/internal/graph"
	"seda/internal/store"
	"seda/internal/xmldoc"
)

// Mondial generator: 5563 geography documents in ten entity kinds with
// IDREF links between them (country borders, city/province membership, sea
// bordering, organization membership) — the linked data behind the paper's
// Figure 1. Table 1 target: 86 dataguides at threshold 40%, achieved by
// giving each kind a fixed set of structural variants whose pairwise path
// overlap stays below the threshold.

// mondialKind describes one entity kind.
type mondialKind struct {
	tag      string
	count    int // documents at scale 1.0
	variants int // structural variants (sums to 86 across kinds)
	stats    int // variant-specific stat leaves per document
}

var mondialKinds = []mondialKind{
	{tag: "country", count: 240, variants: 12, stats: 8},
	{tag: "province", count: 1445, variants: 4, stats: 8},
	{tag: "city", count: 3398, variants: 16, stats: 8},
	{tag: "sea", count: 40, variants: 6, stats: 8},
	{tag: "river", count: 60, variants: 8, stats: 8},
	{tag: "lake", count: 45, variants: 6, stats: 8},
	{tag: "island", count: 60, variants: 6, stats: 8},
	{tag: "mountain", count: 50, variants: 4, stats: 8},
	{tag: "desert", count: 25, variants: 4, stats: 8},
	{tag: "organization", count: 200, variants: 20, stats: 8},
}

// MondialTotalDocs is the paper's document count at scale 1.
const MondialTotalDocs = 5563

// Mondial generates the corpus at the given scale (1.0 = 5563 documents).
// Link edges are encoded as id / ref-style attributes; resolve them by
// folding the collection into a graph under DiscoverOptionsFor("mondial").
func Mondial(scale float64) *store.Collection {
	col := store.NewCollection()
	// Country ids come first so other entities can reference them.
	nCountry := scaleCount(mondialKinds[0].count, scale, 3)
	countryIDs := make([]string, nCountry)
	for i := range countryIDs {
		countryIDs[i] = fmt.Sprintf("c%03d", i)
	}
	seaIDs := []string{}
	for _, k := range mondialKinds {
		n := scaleCount(k.count, scale, 1)
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("%s%04d", k.tag[:1], i)
			if k.tag == "country" {
				id = countryIDs[i%len(countryIDs)]
			}
			if k.tag == "sea" {
				seaIDs = append(seaIDs, id)
			}
			doc := mondialDoc(k, i, id, countryIDs, seaIDs)
			col.AddDocument(xmldoc.Build(fmt.Sprintf("mondial-%s-%d", k.tag, i), doc, col.Dict()))
		}
	}
	return col
}

// mondialDoc builds one entity document of the kind's variant (i mod
// variants). Variant stat sets are disjoint (stride 8), so two variants of
// a kind share only the root/id/name/reference paths — overlap ≈ 1/3,
// safely below the 40% merge threshold.
func mondialDoc(k mondialKind, i int, id string, countryIDs, seaIDs []string) *xmldoc.Node {
	variant := i % k.variants
	name := mondialName(k.tag, i)
	root := xmldoc.Elem(k.tag,
		xmldoc.Attr("id", id),
		xmldoc.Text("name", name),
	)
	// Kind-specific reference attributes (IDREF link sources).
	switch k.tag {
	case "country":
		// Borders to up to three other countries.
		var borders string
		for b := 0; b < pick(4, "nb", k.tag, fmt.Sprint(i)); b++ {
			t := countryIDs[pick(len(countryIDs), "b", id, fmt.Sprint(b))]
			if t == id {
				continue
			}
			if borders != "" {
				borders += " "
			}
			borders += t
		}
		if borders != "" {
			root.Add(xmldoc.Attr("bordering", borders))
		}
	case "city", "province":
		root.Add(xmldoc.Attr("country", countryIDs[pick(len(countryIDs), "home", id)]))
	case "sea", "river", "lake":
		a := countryIDs[pick(len(countryIDs), "sa", id)]
		b := countryIDs[pick(len(countryIDs), "sb", id)]
		root.Add(xmldoc.Attr("bordering", a+" "+b))
	case "island":
		if len(seaIDs) > 0 {
			root.Add(xmldoc.Attr("insea", seaIDs[pick(len(seaIDs), "is", id)]))
		}
	case "organization":
		var members string
		for m := 0; m < 2+pick(4, "nm", id); m++ {
			if members != "" {
				members += " "
			}
			members += countryIDs[pick(len(countryIDs), "m", id, fmt.Sprint(m))]
		}
		root.Add(xmldoc.Attr("members", members))
	}
	// Variant-specific statistics (disjoint across variants).
	for s := 0; s < k.stats; s++ {
		stat := fmt.Sprintf("%s_stat_%03d", k.tag, variant*k.stats+s)
		root.Add(xmldoc.Text(stat, fmt.Sprint(pick(100000, stat, id))))
	}
	return root
}

func mondialName(kind string, i int) string {
	if kind == "country" {
		return countryNames[i%len(countryNames)]
	}
	if kind == "sea" && i == 0 {
		return "Pacific Ocean"
	}
	if kind == "sea" && i == 1 {
		return "China Sea"
	}
	return fmt.Sprintf("%s-%04d", kind, i)
}

// MondialLinkAttrs returns the attribute sets that link discovery should
// treat as ids and references for this corpus.
func MondialLinkAttrs() (idAttrs, idrefAttrs []string) {
	return []string{"id"}, []string{"bordering", "country", "insea", "members"}
}

// DiscoverOptionsFor returns the link-discovery options a builtin corpus
// needs (the zero value when the dataset has no special requirements).
// It is the single source of truth for the dataset→config mapping: the
// serving registry, seda.MondialConfig, and the benchmark tools all
// resolve through it, so their engines fingerprint identically and a
// snapshot written by one validates under another.
func DiscoverOptionsFor(dataset string) graph.DiscoverOptions {
	if dataset != "mondial" {
		return graph.DiscoverOptions{}
	}
	idAttrs, idrefAttrs := MondialLinkAttrs()
	return graph.DiscoverOptions{IDAttrs: idAttrs, IDRefAttrs: idrefAttrs}
}
