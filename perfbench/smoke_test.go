package main

import (
	"testing"

	"scanraw/internal/vdisk"
)

// The smoke run: every workload at tiny scale, untraced and traced, must
// finish with every operation correct and every metric reported.
// Run with: cd perfbench && go test -count=1 .

var endToEndNames = []string{
	"setup_s", "first_query_ms", "converged_query_ms", "sequence_s", "query_p50_ms",
	"query_p99_ms", "queries_per_s", "peak_heap_mib", "stored_bytes_per_raw_byte",
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{workload: w.name, seed: 3, seconds: 1, tiny: true, trace: traced, policy: "speculative"}
			res, err := runWorkload(w, o)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (trace %v): correct %v, %d of %d failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if traced {
				if len(res.Metrics) < 20 {
					t.Errorf("%s: traced run reported %d per-layer metrics", w.name, len(res.Metrics))
				}
				// The coordinator replay is the cluster layer's only path.
				if m := res.Metrics["cluster.wire_bytes_per_query"]; m.Value <= 0 {
					t.Errorf("%s: cluster replay reported %+v wire bytes per query", w.name, m)
				}
				continue
			}
			for _, name := range endToEndNames {
				if m, ok := res.Metrics[name]; !ok || m.Value <= 0 {
					t.Errorf("%s: metric %s = %+v, want a positive value", w.name, name, m)
				}
			}
		}
	}
}

// TestPerturbedAnswersFail feeds the checker expected answers that are off
// by a little — one unit of a sum, one group, two swapped rows, a shifted
// truth for a sampled estimate — and requires every such query to be
// counted as failed, proving the checks fire.
func TestPerturbedAnswersFail(t *testing.T) {
	o := options{seed: 5, seconds: 1, tiny: true}
	r, err := newRunner(o, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	ds := newDataset(4096, 8, 5)
	qs := mixQueries(ds)
	n, err := r.memNode("node", ds.raw, 8, vdisk.Config{}, serving(64, 16))
	if err != nil {
		t.Fatal(err)
	}
	defer n.close()
	for i := range qs {
		if rep, _ := r.do(n.ln.url, &qs[i]); rep == nil {
			t.Fatalf("unperturbed %s failed", qs[i].sql)
		}
	}
	if r.failed != 0 {
		t.Fatalf("%d unperturbed queries failed", r.failed)
	}
	for i := range qs {
		q := qs[i]
		q.want = perturb(q)
		before := r.failed
		r.do(n.ln.url, &q)
		if r.failed != before+1 {
			t.Errorf("perturbed %s (%s) was not counted as failed", q.label, q.sql)
		}
	}
}

// perturb returns a deep copy of q's expected answer, changed so that a
// correct reply no longer matches it.
func perturb(q query) [][]cell {
	want := make([][]cell, len(q.want))
	for i, row := range q.want {
		want[i] = append([]cell(nil), row...)
	}
	switch {
	case q.kind == olaJSON:
		want[0][0].i += want[0][0].i / 2 // far outside three half-widths, and not exact
	case q.ordered && len(want) > 1:
		want[0], want[1] = want[1], want[0]
	case len(want) > 1:
		want = want[1:] // a missing group
	case want[0][0].isFloat:
		want[0][0].f *= 1 + 1e-6
	default:
		want[0][0].i++
	}
	return want
}
