package rel

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func sample() *Table {
	t := NewTable("fact", "country", "year", "partner", "pct")
	t.Insert(S("United States"), S("2004"), S("China"), N(12.5))
	t.Insert(S("United States"), S("2004"), S("Mexico"), N(10.7))
	t.Insert(S("United States"), S("2005"), S("China"), N(13.8))
	t.Insert(S("United States"), S("2005"), S("Mexico"), N(10.3))
	t.Insert(S("United States"), S("2006"), S("China"), N(15))
	t.Insert(S("United States"), S("2006"), S("Canada"), N(16.9))
	return t
}

func TestParseNumeric(t *testing.T) {
	cases := []struct {
		in   string
		num  float64
		isN  bool
		null bool
	}{
		{"15%", 15, true, false},
		{"10.082T", 10.082e12, true, false},
		{"924.4B", 924.4e9, true, false},
		{"3.5M", 3.5e6, true, false},
		{"1,234", 1234, true, false},
		{"2006", 2006, true, false},
		{"China", 0, false, false},
		{"", 0, false, true},
		{"  ", 0, false, true},
	}
	for _, c := range cases {
		v := ParseNumeric(c.in)
		if v.IsNull != c.null || v.IsNum != c.isN || (c.isN && v.Num != c.num) {
			t.Errorf("ParseNumeric(%q) = %+v", c.in, v)
		}
	}
}

func TestInsertArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("wrong arity must panic")
		}
	}()
	NewTable("t", "a", "b").Insert(S("only-one"))
}

func TestProjectSelectDistinctSort(t *testing.T) {
	tb := sample()
	p, err := tb.Project("partner", "pct")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Cols) != 2 || p.NumRows() != 6 {
		t.Fatalf("project shape: %v", p.Cols)
	}
	if _, err := tb.Project("nope"); err == nil {
		t.Error("projecting unknown column must error")
	}
	sel := tb.Select(func(r []Value) bool { return r[2].Str == "China" })
	if sel.NumRows() != 3 {
		t.Errorf("select = %d rows", sel.NumRows())
	}
	d, err := tb.Project("country")
	if err != nil {
		t.Fatal(err)
	}
	if d.Distinct().NumRows() != 1 {
		t.Errorf("distinct countries = %d", d.Distinct().NumRows())
	}
	srt, err := tb.Sort("pct")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < srt.NumRows(); i++ {
		if srt.Rows[i][3].Num < srt.Rows[i-1][3].Num {
			t.Fatal("sort broken")
		}
	}
	if _, err := tb.Sort("nope"); err == nil {
		t.Error("sorting unknown column must error")
	}
}

func TestJoin(t *testing.T) {
	fact := sample()
	dim := NewTable("partner_dim", "partner", "region")
	dim.Insert(S("China"), S("Asia"))
	dim.Insert(S("Mexico"), S("Americas"))
	dim.Insert(S("Canada"), S("Americas"))
	j, err := fact.Join(dim, []string{"partner"}, []string{"partner"})
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != 6 {
		t.Fatalf("join rows = %d", j.NumRows())
	}
	// Column collision gets prefixed.
	if j.ColIndex("partner_dim.partner") < 0 {
		t.Errorf("cols = %v", j.Cols)
	}
	if j.ColIndex("region") < 0 {
		t.Errorf("cols = %v", j.Cols)
	}
	// Join filters unmatched rows.
	small := NewTable("d2", "partner")
	small.Insert(S("China"))
	j2, err := fact.Join(small, []string{"partner"}, []string{"partner"})
	if err != nil {
		t.Fatal(err)
	}
	if j2.NumRows() != 3 {
		t.Errorf("filtered join = %d", j2.NumRows())
	}
	if _, err := fact.Join(dim, []string{"nope"}, []string{"partner"}); err == nil {
		t.Error("unknown join column must error")
	}
	if _, err := fact.Join(dim, nil, nil); err == nil {
		t.Error("empty join keys must error")
	}
}

func TestGroupByAggregates(t *testing.T) {
	tb := sample()
	g, err := tb.GroupBy([]string{"partner"}, []AggSpec{
		{Fn: Sum, Col: "pct"},
		{Fn: Count, Col: "*"},
		{Fn: Avg, Col: "pct"},
		{Fn: Min, Col: "pct"},
		{Fn: Max, Col: "pct"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumRows() != 3 {
		t.Fatalf("groups = %d", g.NumRows())
	}
	// Sorted by key: Canada, China, Mexico.
	if g.Rows[0][0].Str != "Canada" || g.Rows[1][0].Str != "China" {
		t.Fatalf("group order: %v", g)
	}
	china := g.Rows[1]
	if china[1].Num != 12.5+13.8+15 {
		t.Errorf("SUM = %v", china[1])
	}
	if china[2].Num != 3 {
		t.Errorf("COUNT(*) = %v", china[2])
	}
	if china[4].Num != 12.5 || china[5].Num != 15 {
		t.Errorf("MIN/MAX = %v/%v", china[4], china[5])
	}
	if _, err := tb.GroupBy([]string{"nope"}, nil); err == nil {
		t.Error("unknown key column must error")
	}
	if _, err := tb.GroupBy([]string{"partner"}, []AggSpec{{Fn: Sum, Col: "*"}}); err == nil {
		t.Error("SUM(*) must error")
	}
}

func TestGroupByNullsAndStrings(t *testing.T) {
	tb := NewTable("t", "k", "v")
	tb.Insert(S("a"), N(1))
	tb.Insert(S("a"), Null())
	tb.Insert(S("a"), S("not-a-number"))
	g, err := tb.GroupBy([]string{"k"}, []AggSpec{{Fn: Sum, Col: "v"}, {Fn: Count, Col: "v"}, {Fn: Avg, Col: "v"}})
	if err != nil {
		t.Fatal(err)
	}
	if g.Rows[0][1].Num != 1 {
		t.Errorf("SUM skipping non-numeric = %v", g.Rows[0][1])
	}
	// COUNT counts non-null (2: the number and the string).
	if g.Rows[0][2].Num != 2 {
		t.Errorf("COUNT = %v", g.Rows[0][2])
	}
	// AVG over numeric only.
	if g.Rows[0][3].Num != 1 {
		t.Errorf("AVG = %v", g.Rows[0][3])
	}
	// All-null group yields NULL AVG/MIN/MAX.
	tb2 := NewTable("t", "k", "v")
	tb2.Insert(S("a"), Null())
	g2, _ := tb2.GroupBy([]string{"k"}, []AggSpec{{Fn: Avg, Col: "v"}, {Fn: Min, Col: "v"}, {Fn: Max, Col: "v"}})
	for i := 1; i <= 3; i++ {
		if !g2.Rows[0][i].IsNull {
			t.Errorf("col %d should be NULL: %v", i, g2.Rows[0][i])
		}
	}
}

func TestStringRendering(t *testing.T) {
	tb := sample()
	s := tb.String()
	if !strings.Contains(s, "fact (6 rows)") || !strings.Contains(s, "United States") {
		t.Errorf("render:\n%s", s)
	}
	if N(12.5).String() != "12.5" || S("x").String() != "x" || !Null().IsNull {
		t.Error("value rendering broken")
	}
}

// Property: SUM over any grouping equals the global sum (aggregation
// consistency — the "cube slices add up" invariant).
func TestPropGroupSumConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tb := NewTable("t", "g1", "g2", "v")
		total := 0.0
		for i := 0; i < 5+r.Intn(40); i++ {
			v := float64(r.Intn(1000)) / 10
			total += v
			tb.Insert(S(string(rune('a'+r.Intn(3)))), S(string(rune('x'+r.Intn(2)))), N(v))
		}
		for _, keys := range [][]string{{"g1"}, {"g2"}, {"g1", "g2"}} {
			g, err := tb.GroupBy(keys, []AggSpec{{Fn: Sum, Col: "v"}})
			if err != nil {
				return false
			}
			s := 0.0
			vi := len(keys)
			for _, row := range g.Rows {
				s += row[vi].Num
			}
			if diff := s - total; diff > 1e-9 || diff < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestValueOrdering(t *testing.T) {
	vals := []Value{S("b"), N(2), Null(), S("a"), N(1)}
	tb := NewTable("t", "v")
	for _, v := range vals {
		tb.Insert(v)
	}
	s, err := tb.Sort("v")
	if err != nil {
		t.Fatal(err)
	}
	// NULL, 1, 2, a, b
	if !s.Rows[0][0].IsNull || s.Rows[1][0].Num != 1 || s.Rows[3][0].Str != "a" {
		t.Errorf("order: %v", s)
	}
}
