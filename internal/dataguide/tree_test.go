package dataguide

import (
	"strings"
	"testing"

	"seda/internal/store"
)

func TestTreeString(t *testing.T) {
	c := store.NewCollection()
	addDocs(t, c,
		`<country><name>A</name><economy><import_partners>
			<item><trade_country>X</trade_country></item>
			<item><trade_country>Y</trade_country></item>
		</import_partners></economy></country>`,
	)
	s, err := Build(c, nil, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	out := s.Guides[0].TreeString(c.Dict())
	if !strings.Contains(out, "guide 0: 6 paths, 1 docs") {
		t.Errorf("header:\n%s", out)
	}
	// item repeats under import_partners: marked with '*', indented 3 deep.
	if !strings.Contains(out, "      item *") {
		t.Errorf("repeatable item not marked:\n%s", out)
	}
	if !strings.Contains(out, "country\n") {
		t.Errorf("root missing:\n%s", out)
	}
	// Deeper nodes are indented more than their parents.
	ci := strings.Index(out, "country")
	ti := strings.Index(out, "trade_country")
	if ci < 0 || ti < 0 || ti < ci {
		t.Errorf("ordering wrong:\n%s", out)
	}
}

func TestSetSummary(t *testing.T) {
	c := store.NewCollection()
	addDocs(t, c, `<a><x>1</x></a>`, `<b><y>2</y></b>`)
	s, err := Build(c, nil, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	out := s.Summary()
	if !strings.Contains(out, "2 dataguides") || !strings.Contains(out, "/a") || !strings.Contains(out, "/b") {
		t.Errorf("summary:\n%s", out)
	}
}
