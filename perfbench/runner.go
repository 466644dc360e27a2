package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"scanraw/internal/vdisk"
)

// runner holds one run's measurements. Workloads repeat the same work in
// units — a cold_converge round, a serve_mix pass, a durable_cycle cycle —
// and record every query; each end-to-end timing is first reduced per unit
// (or per round) and the run reports the fast-side quartile of those
// figures (see endToEnd).
type runner struct {
	opt    options
	budget time.Duration
	start  time.Time
	tr     *tracer // nil when untraced
	cl     *client

	mu        sync.Mutex
	recs      []queryRec
	attempted int
	failed    int
	heapBase  uint64 // live heap of the benchmark's own data (see heapBaseline)
	unitPeak  uint64 // largest live heap seen in the current unit
	heapProbe []metrics.Sample

	unitLats []float64 // ms, the current unit's measured queries
	unitConv []float64 // ms, those of them that read no raw chunk

	// Per-unit figures.
	peaks []float64 // live-heap peak above heapBase, MiB
	p50s  []float64 // median query latency, ms
	maxs  []float64 // slowest query, ms
	convs []float64 // median latency of queries that read no raw chunk, ms
	qpss  []float64 // measured queries per second of query wall time
	seqs  []float64 // sequence time, s

	// Per-round figures.
	setups []float64 // s
	firsts []float64 // ms
	stored []float64 // bytes per raw byte

	lay layerFigures // per-round layer figures (filled in traced runs)
}

// queryRec is one completed query.
type queryRec struct {
	lat time.Duration
	st  queryStats
}

func newRunner(o options, tr *tracer, budget time.Duration) (*runner, error) {
	if budget <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	return &runner{
		opt:       o,
		budget:    budget,
		start:     time.Now(),
		tr:        tr,
		cl:        newClient(2),
		heapProbe: []metrics.Sample{{Name: "/gc/heap/live:bytes"}},
	}, nil
}

// expired reports whether the run's measuring time is used up. Workloads
// check it only between whole rounds (or whole passes of a client's query
// list), so every run attempts whole units of the same operations.
func (r *runner) expired() bool { return time.Since(r.start) >= r.budget }

// do sends one measured query, checks its answer and records it. It
// returns the reply (nil on failure) and the client-side latency.
func (r *runner) do(base string, q *query) (*reply, time.Duration) {
	return r.exec(base, q, nil, true)
}

// exec sends one query and checks its answer plus, when extra is set, a
// property of its stats. Set-up queries (record false) count as operations
// but not toward the latency metrics.
func (r *runner) exec(base string, q *query, extra func(*reply) error, record bool) (*reply, time.Duration) {
	rep, lat, err := r.cl.send(base, q)
	if err == nil {
		err = check(rep, q)
	}
	if err == nil && extra != nil {
		err = extra(rep)
	}
	r.sampleHeap()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failLocked(fmt.Sprintf("%s: %v", q.sql, err))
		return nil, lat
	}
	if record {
		r.recs = append(r.recs, queryRec{lat: lat, st: rep.stats})
		r.unitLats = append(r.unitLats, ms(lat))
	}
	return rep, lat
}

// checkOp records a round-level check (convergence, recovery) as one
// operation.
func (r *runner) checkOp(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failLocked(err.Error())
	}
}

func (r *runner) failLocked(msg string) {
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintln(os.Stderr, "perfbench: operation failed:", msg)
	}
}

// sampleHeap reads the live heap (the bytes the last garbage collection
// found reachable) at a query completion, never on a timer. Unlike the
// total heap, the live heap does not depend on when the collector happened
// to run. runtime/metrics reads do not stop the world.
func (r *runner) sampleHeap() {
	r.mu.Lock()
	defer r.mu.Unlock()
	metrics.Read(r.heapProbe)
	if v := r.heapProbe[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > r.unitPeak {
		r.unitPeak = v.Uint64()
	}
}

// heapBaseline records the live heap the benchmark itself holds — its
// generated data and expected answers, plus, when staged is set, one
// in-memory disk holding staged, which stands in for the disk the raw file
// sits on — so that peak_heap_mib counts only what the serving stack
// allocates beyond its inputs. Workloads call it once, before any round.
func (r *runner) heapBaseline(staged []byte) {
	var vd *vdisk.Disk
	if staged != nil {
		vd = vdisk.New(vdisk.Config{})
		vd.Preload(rawBlob, staged)
	}
	runtime.GC()
	r.mu.Lock()
	defer r.mu.Unlock()
	metrics.Read(r.heapProbe)
	r.heapBase = r.heapProbe[0].Value.Uint64()
	runtime.KeepAlive(vd)
}

// addConverged records a converged query (the workload defines which).
func (r *runner) addConverged(lat time.Duration) {
	r.mu.Lock()
	r.unitConv = append(r.unitConv, ms(lat))
	r.mu.Unlock()
}

// beginUnit starts one unit of repeated work.
func (r *runner) beginUnit() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.unitLats, r.unitConv, r.unitPeak = r.unitLats[:0], r.unitConv[:0], 0
}

// endUnit closes the unit: queryWall is the time its measured queries took
// (wall time of the query phase) and seq its sequence time.
func (r *runner) endUnit(queryWall, seq time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.unitLats) > 0 {
		r.p50s = append(r.p50s, median(r.unitLats))
		r.maxs = append(r.maxs, percentile(r.unitLats, 100))
		r.qpss = append(r.qpss, float64(len(r.unitLats))/queryWall.Seconds())
	}
	if len(r.unitConv) > 0 {
		r.convs = append(r.convs, median(r.unitConv))
	}
	r.seqs = append(r.seqs, seq.Seconds())
	var above uint64
	if r.unitPeak > r.heapBase {
		above = r.unitPeak - r.heapBase
	}
	r.peaks = append(r.peaks, float64(above)/(1<<20))
}

// endToEnd derives the end-to-end metrics. Every workload reports every
// metric; the README gives what each one means on each workload.
//
// A run repeats the same work unit after unit, and this 2-vCPU shared host
// only ever adds time to a unit: a stolen or late-woken virtual CPU stalls
// whatever runs on it. Which units it hits, and how hard, changes from run
// to run, so a median over units moves with the host's load. Each timing is
// therefore taken at the fast-side quartile of its per-unit figures (the
// first quartile of times, the third of rates): it estimates what a unit
// costs when the host lets it run, and a slower program still moves it,
// because every unit repeats the same work. The tail is the exception:
// where the run holds at least tailSamples queries it is the nearest-rank
// 99th percentile over all of them, host stalls included. A shorter run has
// no 99th percentile with ten samples beyond it; there the figure is each
// unit's slowest query, at the fast quartile like the other timings.
func (r *runner) endToEnd() map[string]metric {
	lats := make([]float64, len(r.recs))
	for i, q := range r.recs {
		lats[i] = ms(q.lat)
	}
	fast := func(xs []float64) float64 { q1, _ := quartiles(xs); return q1 }
	_, qps := quartiles(r.qpss)
	tail := fast(r.maxs)
	if len(lats) >= tailSamples {
		tail = percentile(lats, 99)
	}
	return map[string]metric{
		"setup_s":                   {median(r.setups), "s"},
		"first_query_ms":            {fast(r.firsts), "ms"},
		"converged_query_ms":        {fast(r.convs), "ms"},
		"sequence_s":                {fast(r.seqs), "s"},
		"query_p50_ms":              {fast(r.p50s), "ms"},
		"query_p99_ms":              {tail, "ms"},
		"queries_per_s":             {qps, "1/s"},
		"peak_heap_mib":             {median(r.peaks), "MiB"},
		"stored_bytes_per_raw_byte": {median(r.stored), "ratio"},
	}
}

// tailSamples is the smallest query count whose 99th percentile has ten
// samples beyond it.
const tailSamples = 1000

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// quartiles returns the first and third quartile of xs by the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), which the bounds in
// BENCHMARK.json are judged by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
