package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"scanraw/internal/gen"
)

// Expected answers are computed here with plain loops over gen.Value,
// independently of every layer the benchmark measures: no parser, kernel,
// engine or storage code is involved. Any mismatch fails the operation.

// dataset is one generated table: the raw CSV bytes the stack serves, and
// the cell values (column-major) used to compute expected answers.
type dataset struct {
	spec gen.CSVSpec
	raw  []byte
	cols [][]int64
}

func newDataset(rows, cols int, seed uint64) *dataset {
	spec := gen.CSVSpec{Rows: rows, Cols: cols, Seed: seed}
	d := &dataset{spec: spec, raw: gen.Bytes(spec), cols: make([][]int64, cols)}
	for c := range d.cols {
		v := make([]int64, rows)
		for r := range v {
			v[r] = gen.Value(spec, r, c)
		}
		d.cols[c] = v
	}
	return d
}

// dropValues releases the cell values once every expected answer exists,
// so they do not count toward the measured heap.
func (d *dataset) dropValues() { d.cols = nil }

// cell is one expected result value.
type cell struct {
	isFloat bool
	i       int64
	f       float64
}

func intCell(v int64) cell     { return cell{i: v} }
func floatCell(v float64) cell { return cell{isFloat: true, f: v} }

// queryKind selects how a query is sent and checked.
type queryKind int

const (
	exactJSON  queryKind = iota // JSON reply, exact comparison
	ndjsonRows                  // ?stream=ndjson, rows reassembled
	olaJSON                     // ?error=&seed=, checked by method properties
)

// query is one benchmark operation with its expected answer.
type query struct {
	label   string // template name, for reports
	sql     string
	kind    queryKind
	params  string // URL query string
	want    [][]cell
	ordered bool
	tol     float64 // OLA tolerance (kind olaJSON)
	cols    []int   // columns the query reads, for layer replays
}

// pred is a WHERE clause evaluated by the reference loops.
type pred struct {
	col   int
	limit int64 // rows with col < limit qualify; 0 = no filter
}

func (p pred) sql() string {
	if p.limit == 0 {
		return ""
	}
	return fmt.Sprintf(" WHERE c%d < %d", p.col, p.limit)
}

func (d *dataset) match(p pred, r int) bool { return p.limit == 0 || d.cols[p.col][r] < p.limit }

func (d *dataset) rows() int { return d.spec.Rows }

// sumQuery is SELECT SUM(c_a + ... ) [, COUNT(*)] FROM t [WHERE ...].
func (d *dataset) sumQuery(table string, cols []int, p pred, withCount bool) query {
	terms := make([]string, len(cols))
	for i, c := range cols {
		terms[i] = fmt.Sprintf("c%d", c)
	}
	var sum, n int64
	for r := 0; r < d.rows(); r++ {
		if !d.match(p, r) {
			continue
		}
		n++
		for _, c := range cols {
			sum += d.cols[c][r]
		}
	}
	sql := fmt.Sprintf("SELECT SUM(%s)", strings.Join(terms, " + "))
	row := []cell{intCell(sum)}
	if withCount {
		sql += ", COUNT(*)"
		row = append(row, intCell(n))
	}
	sql += " FROM " + table + p.sql()
	return query{label: "aggregate", sql: sql, want: [][]cell{row}, ordered: true, cols: withPred(cols, p)}
}

// avgQuery is SELECT AVG(c_a), COUNT(*) FROM t WHERE ....
func (d *dataset) avgQuery(table string, col int, p pred) query {
	var sum, n int64
	for r := 0; r < d.rows(); r++ {
		if d.match(p, r) {
			sum += d.cols[col][r]
			n++
		}
	}
	avg := math.NaN()
	if n > 0 {
		avg = float64(sum) / float64(n)
	}
	return query{
		label:   "filtered_aggregate",
		sql:     fmt.Sprintf("SELECT AVG(c%d), COUNT(*) FROM %s%s", col, table, p.sql()),
		want:    [][]cell{{floatCell(avg), intCell(n)}},
		ordered: true,
		cols:    withPred([]int{col}, p),
	}
}

// groupQuery is SELECT c_k % m, COUNT(*), SUM(c_v) FROM t GROUP BY c_k % m.
func (d *dataset) groupQuery(table string, key, mod, val int) query {
	counts := make([]int64, mod)
	sums := make([]int64, mod)
	for r := 0; r < d.rows(); r++ {
		g := d.cols[key][r] % int64(mod)
		counts[g]++
		sums[g] += d.cols[val][r]
	}
	var want [][]cell
	for g := range counts {
		if counts[g] > 0 {
			want = append(want, []cell{intCell(int64(g)), intCell(counts[g]), intCell(sums[g])})
		}
	}
	return query{
		label: "group_by",
		sql:   fmt.Sprintf("SELECT c%d %% %d, COUNT(*), SUM(c%d) FROM %s GROUP BY c%d %% %d", key, mod, val, table, key, mod),
		want:  want,
		cols:  []int{key, val},
	}
}

// topQuery is SELECT c_a, c_b FROM t [WHERE] ORDER BY c_a DESC, c_b LIMIT n.
func (d *dataset) topQuery(table string, a, b int, p pred, n int) query {
	var idx []int
	for r := 0; r < d.rows(); r++ {
		if d.match(p, r) {
			idx = append(idx, r)
		}
	}
	sort.Slice(idx, func(i, j int) bool {
		x, y := idx[i], idx[j]
		if d.cols[a][x] != d.cols[a][y] {
			return d.cols[a][x] > d.cols[a][y]
		}
		return d.cols[b][x] < d.cols[b][y]
	})
	if len(idx) > n {
		idx = idx[:n]
	}
	return query{
		label:   "order_by_limit",
		sql:     fmt.Sprintf("SELECT c%d, c%d FROM %s%s ORDER BY c%d DESC, c%d LIMIT %d", a, b, table, p.sql(), a, b, n),
		want:    d.pick(idx, a, b),
		ordered: true,
		cols:    withPred([]int{a, b}, p),
	}
}

// limitQuery is SELECT c_a, c_b FROM t WHERE ... LIMIT n: the first n
// qualifying rows in file order, which is what the server's chunk-order
// streaming returns.
func (d *dataset) limitQuery(table string, a, b int, p pred, n int) query {
	var idx []int
	for r := 0; r < d.rows() && len(idx) < n; r++ {
		if d.match(p, r) {
			idx = append(idx, r)
		}
	}
	return query{
		label:   "limit",
		sql:     fmt.Sprintf("SELECT c%d, c%d FROM %s%s LIMIT %d", a, b, table, p.sql(), n),
		want:    d.pick(idx, a, b),
		ordered: true,
		cols:    withPred([]int{a, b}, p),
	}
}

func (d *dataset) pick(idx []int, a, b int) [][]cell {
	out := make([][]cell, len(idx))
	for i, r := range idx {
		out[i] = []cell{intCell(d.cols[a][r]), intCell(d.cols[b][r])}
	}
	return out
}

func withPred(cols []int, p pred) []int {
	out := append([]int(nil), cols...)
	if p.limit != 0 {
		out = append(out, p.col)
	}
	return out
}

// checkRows compares a reply's rows with the expected answer. Integers
// must match exactly; floats (AVG) within a relative 1e-9, since parallel
// consumption may sum in another order.
func checkRows(got [][]any, want [][]cell, ordered bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	if !ordered {
		got = append([][]any(nil), got...)
		sort.Slice(got, func(i, j int) bool { return rowKey(got[i]) < rowKey(got[j]) })
		want = append([][]cell(nil), want...)
		sort.Slice(want, func(i, j int) bool { return cellKey(want[i]) < cellKey(want[j]) })
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d has %d values, want %d", i, len(got[i]), len(want[i]))
		}
		for j, w := range want[i] {
			if err := checkCell(got[i][j], w); err != nil {
				return fmt.Errorf("row %d col %d: %v", i, j, err)
			}
		}
	}
	return nil
}

func checkCell(v any, w cell) error {
	num, ok := v.(json.Number)
	if !ok {
		return fmt.Errorf("value %v is not a number", v)
	}
	if !w.isFloat {
		got, err := strconv.ParseInt(string(num), 10, 64)
		if err != nil || got != w.i {
			return fmt.Errorf("got %s, want %d", num, w.i)
		}
		return nil
	}
	got, err := num.Float64()
	if err != nil || math.Abs(got-w.f) > 1e-9*math.Max(1, math.Abs(w.f)) {
		return fmt.Errorf("got %s, want %v", num, w.f)
	}
	return nil
}

func rowKey(row []any) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ",")
}

func cellKey(row []cell) string {
	parts := make([]string, len(row))
	for i, c := range row {
		if c.isFloat {
			parts[i] = strconv.FormatFloat(c.f, 'g', -1, 64)
		} else {
			parts[i] = strconv.FormatInt(c.i, 10)
		}
	}
	return strings.Join(parts, ",")
}

// checkOLA checks a sampled aggregate by the properties the method must
// have: error=0 returns the exact answer; a converged estimate reports a
// relative error within the tolerance and lies within three reported
// half-widths of the truth (only a biased estimate misses that); an
// estimate that is neither converged nor exact is wrong.
func checkOLA(rep *reply, q *query) error {
	o := rep.stats.OLA
	if o == nil {
		return fmt.Errorf("no ola block in stats")
	}
	if len(rep.rows) != 1 || len(rep.rows[0]) != 1 || len(q.want) != 1 {
		return fmt.Errorf("sampled aggregate returned %d rows", len(rep.rows))
	}
	truth := q.want[0][0].i
	if q.tol == 0 || o.Exact {
		if !o.Exact {
			return fmt.Errorf("error=0 answer not exact")
		}
		return checkCell(rep.rows[0][0], q.want[0][0])
	}
	if !o.Converged {
		return fmt.Errorf("estimate neither converged nor exact")
	}
	if o.MaxRelError < 0 || o.MaxRelError > q.tol {
		return fmt.Errorf("max_rel_error %v above tolerance %v", o.MaxRelError, q.tol)
	}
	num, ok := rep.rows[0][0].(json.Number)
	if !ok {
		return fmt.Errorf("estimate %v is not a number", rep.rows[0][0])
	}
	est, err := num.Float64()
	if err != nil {
		return err
	}
	half := o.MaxRelError * math.Abs(est)
	if math.Abs(est-float64(truth)) > 3*half {
		return fmt.Errorf("estimate %v misses truth %d by more than 3 half-widths (%v)", est, truth, half)
	}
	return nil
}
