package main

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scanraw/internal/cluster"
	"scanraw/internal/engine"
	"scanraw/internal/kernel"
	"scanraw/internal/scanraw"
	storepkg "scanraw/internal/store"
	"scanraw/internal/tok"
	"scanraw/internal/vdisk"
)

// Tracing records spans from the benchmark's own files, around calls into
// each layer's public surface: a timing wrapper around the store.Disk each
// dbstore runs on, one around every server and peer http.Handler, the
// stats block of every query and the servers' /metrics counters, and
// isolated replays of the conversion kernel and the engine executor over
// the workload's own chunks. Nothing inside the program is instrumented.

// tracer accumulates spans over the traced half of a run. A nil tracer
// wraps nothing.
type tracer struct {
	pageReadBytes, pageReadNs   atomic.Int64
	pageWriteBytes, pageWriteNs atomic.Int64
	pageWrites                  atomic.Int64
	paused                      atomic.Bool // set during warm-up set-ups

	mu        sync.Mutex
	writeDurs []time.Duration       // every WriteBlob, for the median
	written   map[int]struct{}      // chunk IDs with a page written since beginQ1
	handlers  map[string]*spanStats // by node name + path
}

func newTracer() *tracer {
	return &tracer{written: make(map[int]struct{}), handlers: make(map[string]*spanStats)}
}

// spanStats aggregates handler spans of one endpoint.
type spanStats struct {
	n     int
	total time.Duration
	durs  []float64 // ms
	bytes int64
}

// disk wraps d with the timing wrapper (untraced runs get d itself).
func (t *tracer) disk(d storepkg.Disk) storepkg.Disk {
	if t == nil {
		return d
	}
	return &timedDisk{Disk: d, t: t}
}

// handler wraps h so every request's duration and response bytes are
// recorded under name and the request path.
func (t *tracer) handler(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if t.paused.Load() {
			h.ServeHTTP(w, req)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, req)
		d := time.Since(start)
		t.mu.Lock()
		key := name + " " + req.URL.Path
		s := t.handlers[key]
		if s == nil {
			s = &spanStats{}
			t.handlers[key] = s
		}
		s.n++
		s.total += d
		s.durs = append(s.durs, ms(d))
		s.bytes += cw.n
		t.mu.Unlock()
	})
}

// pause stops recording handler spans while a set-up warms a server, so
// the spans cover only measured queries; resume starts again.
func (t *tracer) pause() {
	if t != nil {
		t.paused.Store(true)
	}
}

func (t *tracer) resume() {
	if t != nil {
		t.paused.Store(false)
	}
}

func (t *tracer) span(key string) spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.handlers[key]; s != nil {
		return *s
	}
	return spanStats{}
}

// countingWriter counts response bytes and keeps streaming working.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// timedDisk times the reads and writes that dbstore and the operator make.
// Its own totals give one node's time in disk calls; the tracer's counters
// aggregate page traffic over every node.
type timedDisk struct {
	storepkg.Disk
	t               *tracer
	readNs, writeNs atomic.Int64
}

// diskTimes returns the time spent in a traced disk's reads and writes.
func diskTimes(d storepkg.Disk) (read, write time.Duration) {
	if td, ok := d.(*timedDisk); ok {
		return time.Duration(td.readNs.Load()), time.Duration(td.writeNs.Load())
	}
	return 0, 0
}

func isPage(name string) bool { return strings.HasPrefix(name, "db/") }

func (d *timedDisk) ReadAt(name string, p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := d.Disk.ReadAt(name, p, off)
	d.read(name, n, time.Since(start))
	return n, err
}

func (d *timedDisk) ReadBlob(name string) ([]byte, error) {
	start := time.Now()
	p, err := d.Disk.ReadBlob(name)
	d.read(name, len(p), time.Since(start))
	return p, err
}

func (d *timedDisk) WriteBlob(name string, p []byte) error {
	start := time.Now()
	err := d.Disk.WriteBlob(name, p)
	d.writeNs.Add(int64(time.Since(start)))
	d.t.write(name, len(p), time.Since(start))
	return err
}

func (d *timedDisk) read(name string, n int, dur time.Duration) {
	d.readNs.Add(int64(dur))
	d.t.read(name, n, dur)
}

func (t *tracer) read(name string, n int, d time.Duration) {
	if isPage(name) {
		t.pageReadBytes.Add(int64(n))
		t.pageReadNs.Add(int64(d))
	}
}

func (t *tracer) write(name string, n int, d time.Duration) {
	t.mu.Lock()
	t.writeDurs = append(t.writeDurs, d)
	if isPage(name) {
		// db/<table>/<chunk>/<column or group>
		if parts := strings.Split(name, "/"); len(parts) >= 3 {
			if id, err := strconv.Atoi(parts[2]); err == nil {
				t.written[id] = struct{}{}
			}
		}
	}
	t.mu.Unlock()
	if isPage(name) {
		t.pageWrites.Add(1)
		t.pageWriteBytes.Add(int64(n))
		t.pageWriteNs.Add(int64(d))
	}
}

// layerFigures are the per-round layer observations workloads record in
// traced runs, plus the node-level totals folded in when nodes close.
type layerFigures struct {
	q1Written      []float64 // chunks with a page written during query 1
	q1WorkerBusy   []float64 // % of one core
	q1ReadBusy     []float64 // % of query 1's wall time
	q1WriteBusy    []float64
	toConverge     []float64 // 1-based index of the first query reading no raw chunk
	pagesWritten   []float64 // page writes per round
	recoveryMS     []float64
	serverQueries  int64
	physicalScans  int64
	prof           scanraw.Profile // measured phase, summed over nodes
	readTime       time.Duration   // measured phase: time in disk reads, summed over nodes
	writeTime      time.Duration   // measured phase: time in disk writes
	measuredCount  int64           // queries served in the measured phase
	clusterQueries int64
	clusterMergeMS float64
	convertMBps    float64
	consumeRowsps  float64
}

// q1Mark is the state captured before a round's first query.
type q1Mark struct {
	start time.Time
	cpu   time.Duration
	disk  vdisk.Stats
}

// beginQ1 marks the start of a round's first query on node n.
func (r *runner) beginQ1(n *node) q1Mark {
	if r.tr == nil {
		return q1Mark{}
	}
	r.tr.mu.Lock()
	r.tr.written = make(map[int]struct{})
	r.tr.mu.Unlock()
	return q1Mark{start: time.Now(), cpu: n.cpuTotal(), disk: n.disk.Stats()}
}

// endQ1 records query 1's layer figures.
func (r *runner) endQ1(m q1Mark, n *node) {
	if r.tr == nil {
		return
	}
	wall := time.Since(m.start)
	cpu := n.cpuTotal()
	ds := n.disk.Stats().Sub(m.disk)
	r.tr.mu.Lock()
	written := len(r.tr.written)
	r.tr.mu.Unlock()
	pct := func(d time.Duration) float64 { return 100 * float64(d) / float64(wall) }
	r.lay.q1Written = append(r.lay.q1Written, float64(written))
	r.lay.q1WorkerBusy = append(r.lay.q1WorkerBusy, pct(cpu-m.cpu))
	r.lay.q1ReadBusy = append(r.lay.q1ReadBusy, pct(ds.ReadBusy))
	r.lay.q1WriteBusy = append(r.lay.q1WriteBusy, pct(ds.WriteBusy))
}

func (n *node) cpuTotal() time.Duration {
	if op, ok := n.operator(); ok {
		return op.CPU().Total()
	}
	return 0
}

func (n *node) profile() scanraw.Profile {
	if op, ok := n.operator(); ok {
		return op.ProfileSnapshot()
	}
	return scanraw.Profile{}
}

func addProfile(a, b scanraw.Profile) scanraw.Profile {
	add := func(x, y scanraw.StageProfile) scanraw.StageProfile {
		return scanraw.StageProfile{Time: x.Time + y.Time, Chunks: x.Chunks + y.Chunks}
	}
	return scanraw.Profile{
		Read: add(a.Read, b.Read), Tokenize: add(a.Tokenize, b.Tokenize), Parse: add(a.Parse, b.Parse),
		Write: add(a.Write, b.Write), Consume: add(a.Consume, b.Consume), ConsumeStall: add(a.ConsumeStall, b.ConsumeStall),
	}
}

// measureMark is a node's state when its measured phase begins (after any
// warm-up), so layer totals cover only the measured queries.
type measureMark struct {
	prof        scanraw.Profile
	read, write time.Duration
	queries     int64
}

func (n *node) mark() measureMark {
	read, write := diskTimes(n.disk)
	return measureMark{prof: n.profile(), read: read, write: write, queries: n.srv.MetricsSnapshot().Queries}
}

// foldNode adds a node's measured-phase totals to the run's layer figures;
// workloads call it before closing the node.
func (r *runner) foldNode(n *node, m measureMark) {
	if r.tr == nil {
		return
	}
	snap := n.srv.MetricsSnapshot()
	r.lay.serverQueries += snap.Queries
	r.lay.physicalScans += snap.PhysicalScans
	r.lay.measuredCount += snap.Queries - m.queries
	r.lay.prof = addProfile(r.lay.prof, n.profile().Sub(m.prof))
	read, write := diskTimes(n.disk)
	r.lay.readTime += read - m.read
	r.lay.writeTime += write - m.write
}

// firstNoRaw returns the 1-based index of the first stats block that read
// no raw chunk (len+1 when every query did).
func firstNoRaw(sts []queryStats) float64 {
	for i, s := range sts {
		if !s.readsRaw() {
			return float64(i + 1)
		}
	}
	return float64(len(sts) + 1)
}

// clusterReplay scatters q over n as two /exec shards through a real
// cluster coordinator (the node is both peers' address), so workloads that
// never cross the cluster layer still report its merge and peer costs on
// their own data. It runs only in traced runs, after the measured queries.
func (r *runner) clusterReplay(n *node, q *query, times int) error {
	if r.tr == nil {
		return nil
	}
	half := n.table.NumChunks() / 2
	if half < 1 {
		return fmt.Errorf("cluster replay needs at least two chunks")
	}
	peer := strings.TrimPrefix(n.ln.url, "http://")
	fc := cluster.FleetConfig{
		Peers: []cluster.PeerConfig{{Addr: peer, Owns: []cluster.OwnConfig{
			{Table: tableName, Lo: 0, Hi: half},
			{Table: tableName, Lo: half, Hi: 0},
		}}},
		Tables: map[string]cluster.TableConfig{tableName: {Schema: schemaSpec(colsOf(n))}},
	}
	f, err := cluster.NewFleet(fc)
	if err != nil {
		return err
	}
	co := cluster.NewCoordinator(f, cluster.Config{HealthInterval: -1})
	defer co.Close()
	ln, err := listen(r.tr.handler("coordinator", co.Handler()))
	if err != nil {
		return err
	}
	defer ln.close()
	for i := 0; i < times; i++ {
		rep, _, err := r.cl.send(ln.url, q)
		if err == nil {
			err = check(rep, q)
		}
		if err != nil {
			return fmt.Errorf("cluster replay: %w", err)
		}
	}
	m := co.MetricsSnapshot()
	r.lay.clusterQueries += m.Queries
	r.lay.clusterMergeMS += m.MergeMS
	return nil
}

func colsOf(n *node) int { return n.table.Schema().NumColumns() }

// schemaSpec renders the generated schema in the fleet config's form.
func schemaSpec(cols int) string {
	parts := make([]string, cols)
	for i := range parts {
		parts[i] = fmt.Sprintf("c%d:int64", i)
	}
	return strings.Join(parts, ",")
}

// replayLayers times the conversion kernel and the engine executor in
// isolation over the workload's own chunks and queries, at real CPU speed.
func (r *runner) replayLayers(raw []byte, cols, chunkLines int, qs []query) error {
	if r.tr == nil {
		return nil
	}
	chunks, err := tok.SplitChunks(raw, chunkLines)
	if err != nil {
		return err
	}
	sch := schemaOf(cols)
	need := map[int]bool{}
	var exact []*engine.Query
	for i := range qs {
		if qs[i].kind == olaJSON {
			continue
		}
		q, err := engine.ParseSQL(qs[i].sql, sch)
		if err != nil {
			return fmt.Errorf("replay: %v", err)
		}
		exact = append(exact, q)
		for _, c := range qs[i].cols {
			need[c] = true
		}
	}
	var colList []int
	for c := range need {
		colList = append(colList, c)
	}
	sort.Ints(colList)
	k, err := kernel.For(sch, colList, ',')
	if err != nil {
		return err
	}
	const window = 300 * time.Millisecond
	var convBytes int64
	start := time.Now()
	for time.Since(start) < window {
		for _, tc := range chunks {
			bc, err := k.Convert(tc)
			if err != nil {
				return err
			}
			convBytes += int64(len(tc.Data))
			bc.RecycleColumns()
		}
	}
	r.lay.convertMBps = float64(convBytes) / (1 << 20) / time.Since(start).Seconds()

	bcs := make([]*scanraw.BinaryChunk, len(chunks))
	for i, tc := range chunks {
		if bcs[i], err = k.Convert(tc); err != nil {
			return err
		}
	}
	defer func() {
		for _, bc := range bcs {
			bc.RecycleColumns()
		}
	}()
	var rows int64
	start = time.Now()
	for time.Since(start) < window {
		for _, q := range exact {
			ex, err := engine.NewExecutor(q, sch)
			if err != nil {
				return err
			}
			for _, bc := range bcs {
				if err := ex.Consume(bc); err != nil {
					return err
				}
				rows += int64(bc.Rows)
			}
			if _, err := ex.Result(); err != nil {
				return err
			}
		}
	}
	r.lay.consumeRowsps = float64(rows) / time.Since(start).Seconds()
	return nil
}

// perLayer derives the per-layer metrics of a traced run; plain is the
// untraced half the overhead is measured against.
func (r *runner) perLayer(plain *runner) map[string]metric {
	t := r.tr
	var lats, overhead []float64
	var cache, db, raw, partial, olaSampled, olaTotal float64
	for _, q := range r.recs {
		lats = append(lats, ms(q.lat))
		overhead = append(overhead, ms(q.lat)-q.st.DurationMS)
		cache += float64(q.st.ScanChunksCache)
		db += float64(q.st.ScanChunksDB)
		raw += float64(q.st.ScanChunksRaw)
		partial += float64(q.st.ScanChunksPartial)
		if o := q.st.OLA; o != nil {
			olaSampled += float64(o.ChunksSampled)
			olaTotal += float64(o.ChunksTotal)
		}
	}
	nq := float64(len(r.recs))
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var plainLats []float64
	for _, q := range plain.recs {
		plainLats = append(plainLats, ms(q.lat))
	}
	t.mu.Lock()
	writes := make([]float64, len(t.writeDurs))
	for i, d := range t.writeDurs {
		writes[i] = ms(d)
	}
	var peerMS []float64
	var wire int64
	for key, s := range t.handlers {
		if strings.HasSuffix(key, " /exec") {
			peerMS = append(peerMS, s.durs...)
			wire += s.bytes
		}
	}
	t.mu.Unlock()
	mbps := func(bytes, ns int64) float64 {
		if ns == 0 {
			return 0
		}
		return float64(bytes) / (1 << 20) / (float64(ns) / 1e9)
	}
	p50, plainP50 := percentile(lats, 50), percentile(plainLats, 50)
	return map[string]metric{
		"server.overhead_ms":                 {median(overhead), "ms"},
		"server.queries_per_scan":            {ratio(float64(r.lay.serverQueries), float64(r.lay.physicalScans)), "ratio"},
		"scanraw.first_query_chunks_written": {median(r.lay.q1Written), "count"},
		"scanraw.queries_to_converge":        {median(r.lay.toConverge), "count"},
		"scanraw.raw_chunks":                 {ratio(raw, nq), "count"},
		"scanraw.db_chunks":                  {ratio(db, nq), "count"},
		"scanraw.cache_chunks":               {ratio(cache, nq), "count"},
		"scanraw.partial_chunks":             {ratio(partial, nq), "count"},
		"scanraw.worker_busy_pct":            {median(r.lay.q1WorkerBusy), "%"},
		"kernel.convert_mb_per_s":            {r.lay.convertMBps, "MB/s"},
		"engine.consume_rows_per_s":          {r.lay.consumeRowsps, "rows/s"},
		"cache.hit_share":                    {ratio(cache, cache+db+raw+partial), "ratio"},
		"dbstore.page_read_mb_per_s":         {mbps(t.pageReadBytes.Load(), t.pageReadNs.Load()), "MB/s"},
		"dbstore.page_write_mb_per_s":        {mbps(t.pageWriteBytes.Load(), t.pageWriteNs.Load()), "MB/s"},
		"dbstore.pages_written":              {median(r.lay.pagesWritten), "count"},
		"store.write_ms":                     {median(writes), "ms"},
		"store.recovery_ms":                  {median(r.lay.recoveryMS), "ms"},
		"vdisk.read_busy_pct":                {median(r.lay.q1ReadBusy), "%"},
		"vdisk.write_busy_pct":               {median(r.lay.q1WriteBusy), "%"},
		"ola.sampled_share":                  {ratio(olaSampled, olaTotal), "ratio"},
		"cluster.merge_ms":                   {ratio(r.lay.clusterMergeMS, float64(r.lay.clusterQueries)), "ms"},
		"cluster.peer_ms":                    {median(peerMS), "ms"},
		"cluster.wire_bytes_per_query":       {ratio(float64(wire), float64(r.lay.clusterQueries)), "bytes"},
		"trace.overhead_pct":                 {100 * ratio(p50-plainP50, plainP50), "%"},
	}
}

// printLayerTable prints the per-layer figures, the attribution of the
// measured latency to layers, and the tracing overhead.
func printLayerTable(w io.Writer, name string, layers map[string]metric, traced, plain *runner) {
	e2e := plain.endToEnd()
	fmt.Fprintf(w, "end-to-end metrics, workload %s, untraced half (%d queries)\n", name, len(plain.recs))
	for _, k := range sortedKeys(e2e) {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", k, e2e[k].Value, e2e[k].Unit)
	}
	fmt.Fprintf(w, "per-layer metrics, workload %s, traced half (%d queries)\n", name, len(traced.recs))
	for _, k := range sortedKeys(layers) {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", k, layers[k].Value, layers[k].Unit)
	}
	var lat, dur float64
	for _, q := range traced.recs {
		lat += ms(q.lat)
		dur += q.st.DurationMS
	}
	nq := float64(len(traced.recs))
	h := traced.tr.span("node /query")
	handler := 0.0
	if h.n > 0 {
		handler = ms(h.total) / float64(h.n)
	}
	served := float64(traced.lay.measuredCount)
	if served == 0 {
		served = nq
	}
	p := traced.lay.prof
	perQ := func(d time.Duration) float64 { return ms(d) / served }
	read, conv, cons, write := perQ(traced.lay.readTime), perQ(p.Tokenize.Time+p.Parse.Time), perQ(p.Consume.Time), perQ(traced.lay.writeTime)
	sum := read + conv + cons + write
	if nq > 0 {
		lat, dur = lat/nq, dur/nq
		fmt.Fprintf(w, "attribution %s: latency %.3f ms = client+http %.3f + server %.3f + scan %.3f ms per query\n",
			name, lat, lat-handler, handler-dur, dur)
		fmt.Fprintf(w, "attribution %s: scan layers per query: disk read %.3f + convert %.3f + consume %.3f + disk write %.3f = %.3f ms (%.2fx the scan; pipeline stages overlap, worker times add across workers, and the rest of the scan is coalescing wait and scheduling)\n",
			name, read, conv, cons, write, sum, sum/maxf(dur, 1e-9))
	}
	fmt.Fprintf(w, "tracing overhead %s: query p50 %.4f ms traced vs %.4f ms untraced (%+.2f%%)\n",
		name, percentile(latsOf(traced), 50), percentile(latsOf(plain), 50), layers["trace.overhead_pct"].Value)
}

func latsOf(r *runner) []float64 {
	out := make([]float64, len(r.recs))
	for i, q := range r.recs {
		out[i] = ms(q.lat)
	}
	return out
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
