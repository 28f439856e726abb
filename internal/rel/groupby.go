package rel

import (
	"fmt"
	"math"
)

// AggFn is an aggregate function name.
type AggFn string

// Supported aggregates.
const (
	Sum   AggFn = "SUM"
	Count AggFn = "COUNT"
	Avg   AggFn = "AVG"
	Min   AggFn = "MIN"
	Max   AggFn = "MAX"
)

// AggSpec requests one aggregate over a column.
type AggSpec struct {
	Fn  AggFn
	Col string // ignored for COUNT(*) — use "*"
	// As names the output column; defaults to FN(col).
	As string
}

func (a AggSpec) name() string {
	if a.As != "" {
		return a.As
	}
	return fmt.Sprintf("%s(%s)", a.Fn, a.Col)
}

// GroupBy groups rows by the named key columns and computes aggregates,
// returning key columns followed by aggregate columns, sorted by the keys.
// Non-numeric values are skipped by SUM/AVG/MIN/MAX (COUNT counts non-NULL
// occurrences; COUNT(*) counts rows).
func (t *Table) GroupBy(keyCols []string, aggs []AggSpec) (*Table, error) {
	ki := make([]int, len(keyCols))
	for i, c := range keyCols {
		if ki[i] = t.ColIndex(c); ki[i] < 0 {
			return nil, fmt.Errorf("rel: group by: no column %q in %s", c, t.Name)
		}
	}
	ai := make([]int, len(aggs))
	for i, a := range aggs {
		if a.Col == "*" {
			if a.Fn != Count {
				return nil, fmt.Errorf("rel: group by: %s(*) unsupported", a.Fn)
			}
			ai[i] = -1
			continue
		}
		if ai[i] = t.ColIndex(a.Col); ai[i] < 0 {
			return nil, fmt.Errorf("rel: group by: no column %q in %s", a.Col, t.Name)
		}
	}

	type acc struct {
		keys  []Value
		sum   []float64
		min   []float64
		max   []float64
		count []int
		rows  int
	}
	groups := make(map[string]*acc)
	var order []string
	for _, r := range t.Rows {
		k := joinKey(r, ki)
		g, ok := groups[k]
		if !ok {
			keys := make([]Value, len(ki))
			for i, j := range ki {
				keys[i] = r[j]
			}
			g = &acc{
				keys:  keys,
				sum:   make([]float64, len(aggs)),
				min:   make([]float64, len(aggs)),
				max:   make([]float64, len(aggs)),
				count: make([]int, len(aggs)),
			}
			for i := range aggs {
				g.min[i] = math.Inf(1)
				g.max[i] = math.Inf(-1)
			}
			groups[k] = g
			order = append(order, k)
		}
		g.rows++
		for i, a := range aggs {
			if ai[i] < 0 {
				continue // COUNT(*)
			}
			v := r[ai[i]]
			if v.IsNull {
				continue
			}
			if a.Fn == Count {
				g.count[i]++
				continue
			}
			if !v.IsNum {
				continue
			}
			g.sum[i] += v.Num
			g.count[i]++
			if v.Num < g.min[i] {
				g.min[i] = v.Num
			}
			if v.Num > g.max[i] {
				g.max[i] = v.Num
			}
		}
	}

	cols := append([]string{}, keyCols...)
	for _, a := range aggs {
		cols = append(cols, a.name())
	}
	out := NewTable(t.Name+"_grouped", cols...)
	for _, k := range order {
		g := groups[k]
		row := append([]Value{}, g.keys...)
		for i, a := range aggs {
			switch a.Fn {
			case Sum:
				row = append(row, N(g.sum[i]))
			case Count:
				if ai[i] < 0 {
					row = append(row, N(float64(g.rows)))
				} else {
					row = append(row, N(float64(g.count[i])))
				}
			case Avg:
				if g.count[i] == 0 {
					row = append(row, Null())
				} else {
					row = append(row, N(g.sum[i]/float64(g.count[i])))
				}
			case Min:
				if math.IsInf(g.min[i], 1) {
					row = append(row, Null())
				} else {
					row = append(row, N(g.min[i]))
				}
			case Max:
				if math.IsInf(g.max[i], -1) {
					row = append(row, Null())
				} else {
					row = append(row, N(g.max[i]))
				}
			default:
				return nil, fmt.Errorf("rel: group by: unknown aggregate %q", a.Fn)
			}
		}
		out.Rows = append(out.Rows, row)
	}
	sorted, err := out.Sort(keyCols...)
	if err != nil {
		return nil, err
	}
	return sorted, nil
}
