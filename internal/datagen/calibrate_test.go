package datagen

import (
	"testing"

	"seda/internal/dataguide"
	"seda/internal/fulltext"
	"seda/internal/index"
)

// TestCalibrationReport prints the measured corpus statistics next to the
// paper's targets. Run with -v to inspect; assertions are tolerant bands
// (±25% unless the statistic is by-construction exact).
func TestCalibrationReport(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration uses full-scale corpora")
	}

	// --- World Factbook ---
	wfb := WorldFactbook(1)
	st := wfb.Stats()
	t.Logf("WFB: docs=%d (paper 1600), paths=%d (paper 1984)", st.NumDocs, st.NumPaths)
	if st.NumDocs != 1600 {
		t.Errorf("WFB docs = %d, want 1600 exactly", st.NumDocs)
	}
	countryP := wfb.Dict().LookupPath("/country")
	if got := wfb.PathDocFreq(countryP); got != 1577 {
		t.Errorf("/country doc freq = %d, want 1577 exactly", got)
	}
	refP := wfb.Dict().LookupPath("/country/transnational_issues/refugees/country_of_origin")
	if got := wfb.PathDocFreq(refP); got != 186 {
		t.Errorf("refugees path doc freq = %d, want 186 exactly", got)
	}
	inBand(t, "WFB distinct paths", st.NumPaths, 1984, 0.25)

	ix := index.Build(wfb)
	us := ix.PathsForExpr(fulltext.MustParseQuery(`"United States"`))
	t.Logf("WFB: united-states paths=%d (paper 27)", len(us))
	if len(us) != 27 {
		t.Errorf(`(*, "United States") paths = %d, want 27`, len(us))
	}

	dgWFB, err := dataguide.Build(wfb, nil, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("WFB: guides@0.4=%d (paper 500)", len(dgWFB.Guides))
	inBand(t, "WFB guides@0.4", len(dgWFB.Guides), 500, 0.25)
	dg0, err := dataguide.Build(wfb, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("WFB: guides@0 (no merge)=%d (paper: 1600 before merging)", len(dg0.Guides))

	// --- Mondial ---
	mon := Mondial(1)
	t.Logf("Mondial: docs=%d (paper 5563)", mon.NumDocs())
	if mon.NumDocs() != 5563 {
		t.Errorf("Mondial docs = %d, want 5563 exactly", mon.NumDocs())
	}
	dgMon, err := dataguide.Build(mon, nil, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Mondial: guides@0.4=%d (paper 86)", len(dgMon.Guides))
	inBand(t, "Mondial guides@0.4", len(dgMon.Guides), 86, 0.25)

	// --- Google Base ---
	gb := GoogleBase(1)
	t.Logf("GoogleBase: docs=%d (paper 10000)", gb.NumDocs())
	if gb.NumDocs() != 10000 {
		t.Errorf("GoogleBase docs = %d, want 10000 exactly", gb.NumDocs())
	}
	dgGB, err := dataguide.Build(gb, nil, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("GoogleBase: guides@0.4=%d (paper 88)", len(dgGB.Guides))
	if len(dgGB.Guides) != 88 {
		t.Errorf("GoogleBase guides = %d, want 88 exactly", len(dgGB.Guides))
	}

	// --- RecipeML ---
	rml := RecipeML(1)
	t.Logf("RecipeML: docs=%d (paper 10988)", rml.NumDocs())
	if rml.NumDocs() != 10988 {
		t.Errorf("RecipeML docs = %d, want 10988 exactly", rml.NumDocs())
	}
	dgRML, err := dataguide.Build(rml, nil, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("RecipeML: guides@0.4=%d (paper 3)", len(dgRML.Guides))
	if len(dgRML.Guides) != 3 {
		t.Errorf("RecipeML guides = %d, want 3 exactly", len(dgRML.Guides))
	}
}

func inBand(t *testing.T, what string, got, want int, tol float64) {
	t.Helper()
	lo := int(float64(want) * (1 - tol))
	hi := int(float64(want) * (1 + tol))
	if got < lo || got > hi {
		t.Errorf("%s = %d, outside [%d, %d] (paper %d)", what, got, lo, hi, want)
	}
}

func TestDeterminism(t *testing.T) {
	a := WorldFactbook(0.05)
	b := WorldFactbook(0.05)
	if a.NumDocs() != b.NumDocs() || a.Stats().NumPaths != b.Stats().NumPaths {
		t.Error("WorldFactbook not deterministic")
	}
	// Same docs, same content at a probe position.
	if a.Doc(0).Root.Content() != b.Doc(0).Root.Content() {
		t.Error("content differs between runs")
	}
}

func TestScaledCorpora(t *testing.T) {
	wfb := WorldFactbook(0.02)
	if wfb.NumDocs() == 0 {
		t.Fatal("empty scaled corpus")
	}
	if wfb.Dict().LookupPath("/country/economy/import_partners/item/percentage") == 0 {
		t.Error("scaled WFB missing core paths")
	}
	mon := Mondial(0.02)
	if mon.Dict().LookupPath("/country") == 0 || mon.Dict().LookupPath("/sea") == 0 {
		t.Error("scaled Mondial missing kinds")
	}
	gb := GoogleBase(0.01)
	if gb.NumDocs() < GoogleBaseTypes {
		t.Errorf("scaled GoogleBase %d docs, want >= %d (one per type)", gb.NumDocs(), GoogleBaseTypes)
	}
	rml := RecipeML(0.01)
	dg, err := dataguide.Build(rml, nil, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(dg.Guides) != 3 {
		t.Errorf("scaled RecipeML guides = %d, want 3", len(dg.Guides))
	}
}
