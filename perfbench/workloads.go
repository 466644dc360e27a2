package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"scanraw/internal/dbstore"
	"scanraw/internal/scanraw"
	storepkg "scanraw/internal/store"
	"scanraw/internal/vdisk"
)

// scale sizes every workload's inputs. The default is the measured
// configuration; tiny keeps the smoke run to a few seconds.
type scale struct {
	coldRows, coldCols, coldChunk, coldQueries      int
	mixRows, mixCols, mixChunk, mixCache, mixPasses int
	durRows, durCols, durChunk                      int
}

var (
	defaultScale = scale{
		coldRows: 1 << 14, coldCols: 64, coldChunk: 1 << 8, coldQueries: 8,
		mixRows: 1 << 15, mixCols: 16, mixChunk: 1 << 10, mixCache: 8, mixPasses: 2,
		durRows: 1 << 16, durCols: 16, durChunk: 1 << 13,
	}
	tinyScale = scale{
		coldRows: 1 << 10, coldCols: 16, coldChunk: 1 << 5, coldQueries: 8,
		mixRows: 1 << 12, mixCols: 8, mixChunk: 1 << 6, mixCache: 16, mixPasses: 2,
		durRows: 1 << 11, durCols: 8, durChunk: 1 << 8,
	}
)

func (r *runner) scale() scale {
	if r.opt.tiny {
		return tinyScale
	}
	return defaultScale
}

// The model setup of cold_converge: a fixed disk bandwidth (never
// calibrated against this host, which would rescale the disk to the host's
// conversion speed and cancel conversion speed-ups) with writes at half the
// read rate, and 16x simulated core slowdown so 8 conversion workers behave
// like 8 slow cores on a 2-core host. Consume runs on as many slow cores:
// a serial consume stretched 16-fold made every converged query mostly
// host CPU time, and so as unsteady as the host.
const (
	modelReadBandwidth = 64 << 20
	modelCPUSlowdown   = 16
	modelWorkers       = 8
	// minRounds keeps every per-round figure over at least this many rounds.
	minRounds = 3
	// mixClients is the client count of serve_mix (nproc of the reference
	// machine).
	mixClients = 2
)

// The disks. Every workload runs its I/O on the fixed-bandwidth model,
// with writes at half the read rate: the model's time is slept, and a
// sleep that the shared host delays is credited back to the next
// transfer, so time on the model disk does not depend on the host's load
// the way CPU time does. durable_cycle runs the model over store.FileDisk,
// as scanrawd -data-dir -disk does, so the real files, fsyncs and journal
// stay underneath. serve_mix reads its pages at a quarter of the rate:
// there, page reads must outweigh the real-CPU work of a warm query, whose
// wall time on this host varies with its neighbours' load (a two-client
// mix at real CPU over an unthrottled disk drifted 15–60 % between runs
// minutes apart).
var (
	modelDisk = vdisk.Config{ReadBandwidth: modelReadBandwidth, WriteBandwidth: modelReadBandwidth / 2}
	mixDisk   = vdisk.Config{ReadBandwidth: modelReadBandwidth / 4, WriteBandwidth: modelReadBandwidth / 8}
)

func allCols(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func parsePolicy(s string) (scanraw.WritePolicy, error) {
	switch s {
	case "speculative":
		return scanraw.Speculative, nil
	case "external":
		return scanraw.ExternalTables, nil
	case "fullload":
		return scanraw.FullLoad, nil
	}
	return 0, fmt.Errorf("unknown --policy %q (speculative, external, fullload)", s)
}

// runColdConverge is the paper's Fig. 8 on the model setup: each round
// starts a fresh server and sends the same full-width SUM coldQueries
// times, one at a time.
func runColdConverge(r *runner) error {
	sc := r.scale()
	policy, err := parsePolicy(r.opt.policy)
	if err != nil {
		return err
	}
	ds := newDataset(sc.coldRows, sc.coldCols, r.opt.seed)
	q := ds.sumQuery(tableName, allCols(sc.coldCols), pred{}, false)
	q.label = "fig8_sum"
	ds.dropValues()
	r.heapBaseline(ds.raw)
	numChunks := (sc.coldRows + sc.coldChunk - 1) / sc.coldChunk
	cfg := scanraw.Config{
		Workers:        modelWorkers,
		ChunkLines:     sc.coldChunk,
		CacheChunks:    numChunks / 4,
		Policy:         policy,
		Safeguard:      true,
		CPUSlowdown:    modelCPUSlowdown,
		ConsumeWorkers: modelWorkers,
	}

	for round := 0; round < minRounds || !r.expired(); round++ {
		start := time.Now()
		n, err := r.memNode("node", ds.raw, sc.coldCols, modelDisk, cfg)
		if err != nil {
			return err
		}
		r.setups = append(r.setups, time.Since(start).Seconds())
		m := n.mark()
		pages := r.pageWrites()
		r.beginUnit()
		var sts []queryStats
		var seq time.Duration
		for i := 0; i < sc.coldQueries; i++ {
			mk := r.beginQ1(n)
			rep, lat := r.do(n.ln.url, &q)
			if i == 0 {
				r.endQ1(mk, n)
				r.firsts = append(r.firsts, ms(lat))
			}
			seq += lat
			if rep == nil {
				continue
			}
			sts = append(sts, rep.stats)
			if !rep.stats.readsRaw() {
				r.addConverged(lat)
			}
		}
		r.endUnit(seq, seq)
		n.waitIdle()
		if policy != scanraw.ExternalTables {
			var err error
			switch {
			case !n.table.FullyLoaded():
				err = fmt.Errorf("cold_converge: %d of %d chunks loaded after %d queries",
					n.table.CountLoaded(allCols(sc.coldCols)), n.table.NumChunks(), sc.coldQueries)
			case len(sts) > 0 && sts[len(sts)-1].readsRaw():
				err = fmt.Errorf("cold_converge: query %d still read %d raw chunks", sc.coldQueries, sts[len(sts)-1].ScanChunksRaw)
			}
			r.checkOp(err)
		}
		r.stored = append(r.stored, float64(n.storedBytes())/float64(n.raw))
		r.lay.toConverge = append(r.lay.toConverge, firstNoRaw(sts))
		r.lay.pagesWritten = append(r.lay.pagesWritten, float64(r.pageWrites()-pages))
		r.foldNode(n, m)
		err = r.clusterReplay(n, &q, 2)
		n.close()
		if err != nil {
			return err
		}
	}
	r.cl.close()
	return r.replayLayers(ds.raw, sc.coldCols, sc.coldChunk, []query{q})
}

// pageWrites is the traced page-write count so far (0 untraced).
func (r *runner) pageWrites() int64 {
	if r.tr == nil {
		return 0
	}
	return r.tr.pageWrites.Load()
}

// layoutSeed fixes which columns each query reads and each client's query
// order. Only the data depends on --seed: where a column sits in the line
// changes what a query costs, so seeded column choices would make every
// seed measure different work.
const layoutSeed = 1

// mixQueries builds serve_mix's query list: fixed templates, counts,
// selectivities (half the rows pass each filter), group counts and
// columns; the seed reaches it only through the data, and so the answers.
// Index 0, a narrow aggregate, is the first query after every set-up.
func mixQueries(ds *dataset) []query {
	rng := rand.New(rand.NewSource(layoutSeed))
	cols := ds.spec.Cols
	col := func() int { return rng.Intn(cols) }
	two := func() (int, int) {
		a := rng.Intn(cols)
		return a, (a + 1 + rng.Intn(cols-1)) % cols
	}
	var qs []query
	for i := 0; i < 4; i++ {
		qs = append(qs, ds.sumQuery(tableName, []int{col()}, pred{}, true))
	}
	for i := 0; i < 2; i++ {
		a, b := two()
		q := ds.sumQuery(tableName, []int{a}, half(b), true)
		q.label = "filtered_aggregate"
		qs = append(qs, q)
	}
	a, b := two()
	qs = append(qs, ds.avgQuery(tableName, a, half(b)))
	for i := 0; i < 3; i++ {
		a, b := two()
		qs = append(qs, ds.groupQuery(tableName, a, groups, b))
	}
	for i := 0; i < 2; i++ {
		a, b := two()
		qs = append(qs, ds.topQuery(tableName, a, b, half(col()), 10))
	}
	for i := 0; i < 2; i++ {
		a, b := two()
		q := ds.limitQuery(tableName, a, b, half(col()), 100)
		q.kind, q.params, q.label = ndjsonRows, "stream=ndjson", "ndjson_limit"
		qs = append(qs, q)
	}
	for _, tol := range []float64{0.05, 0} {
		q := ds.sumQuery(tableName, []int{col()}, pred{}, false)
		q.kind, q.tol, q.label = olaJSON, tol, "sampled_aggregate"
		q.params = fmt.Sprintf("error=%g&seed=7", tol)
		qs = append(qs, q)
	}
	return qs
}

// groups is the group count of every GROUP BY (the key is c_k % groups).
const groups = 8

// half is a filter on col that half the rows pass (values are uniform
// below 2^31).
func half(col int) pred { return pred{col: col, limit: 1 << 30} }

// clientOrder is client c's fixed permutation of the query list.
func clientOrder(n, c int) []int {
	return rand.New(rand.NewSource(layoutSeed + int64(c))).Perm(n)
}

// pass runs one serve_mix unit: the clients step through their orders of
// qs together, each sending its query of the step and waiting for the
// reply, and the next step starts once every client has its reply. Each
// step thus hands the server the same set of concurrent queries in every
// pass, so admission and coalescing see the same contention each time
// instead of whatever interleaving the host's scheduling produced.
func (r *runner) pass(base string, qs []query, orders [][]int) {
	r.beginUnit()
	start := time.Now()
	for step := range orders[0] {
		var wg sync.WaitGroup
		for _, order := range orders {
			q := &qs[order[step]]
			wg.Add(1)
			go func() {
				defer wg.Done()
				if rep, lat := r.do(base, q); rep != nil && !rep.stats.readsRaw() {
					r.addConverged(lat)
				}
			}()
		}
		wg.Wait()
	}
	wall := time.Since(start)
	r.endUnit(wall, wall)
}

// runServeMix: real CPU over the in-memory model disk (mixDisk), the table
// fully loaded during set-up, two clients stepping through the seeded mix. Each round
// sets up a fresh server, sends one query, then runs mixPasses passes.
func runServeMix(r *runner) error {
	sc := r.scale()
	ds := newDataset(sc.mixRows, sc.mixCols, r.opt.seed)
	qs := mixQueries(ds)
	warmQ := ds.sumQuery(tableName, allCols(sc.mixCols), pred{}, false)
	ds.dropValues()
	r.heapBaseline(ds.raw)
	cfg := serving(sc.mixChunk, sc.mixCache)
	orders := make([][]int, mixClients)
	for c := range orders {
		orders[c] = clientOrder(len(qs), c)
	}
	for round := 0; round < minRounds || !r.expired(); round++ {
		start := time.Now()
		r.tr.pause()
		n, err := r.memNode("node", ds.raw, sc.mixCols, mixDisk, cfg)
		if err != nil {
			return err
		}
		if err := r.warm(n, &warmQ); err != nil {
			n.close()
			return err
		}
		r.setups = append(r.setups, time.Since(start).Seconds())
		r.tr.resume()
		m := n.mark()
		pages := r.pageWrites()
		mk := r.beginQ1(n)
		rep, lat, err := r.cl.send(n.ln.url, &qs[0])
		if err == nil {
			err = check(rep, &qs[0])
		}
		r.checkOp(err)
		r.endQ1(mk, n)
		r.firsts = append(r.firsts, ms(lat))
		if rep != nil {
			r.lay.toConverge = append(r.lay.toConverge, firstNoRaw([]queryStats{rep.stats}))
		}
		for p := 0; p < sc.mixPasses; p++ {
			r.pass(n.ln.url, qs, orders)
		}
		r.stored = append(r.stored, float64(n.storedBytes())/float64(n.raw))
		r.lay.pagesWritten = append(r.lay.pagesWritten, float64(r.pageWrites()-pages))
		r.foldNode(n, m)
		err = r.clusterReplay(n, &qs[0], 4)
		n.close()
		if err != nil {
			return err
		}
	}
	r.cl.close()
	return r.replayLayers(ds.raw, sc.mixCols, sc.mixChunk, qs)
}

// durableQueries are durable_cycle's narrow queries: four two-column
// subsets spread across the row, each as a plain and a filtered aggregate.
// The subsets are fixed because conversion cost depends on where in the
// line a column sits; the seed varies only the data.
func durableQueries(ds *dataset) []query {
	cols := ds.spec.Cols
	var qs []query
	for s := 0; s < 4; s++ {
		a := s * cols / 4
		b := a + 1
		qs = append(qs, ds.sumQuery(tableName, []int{a, b}, pred{}, true))
		q := ds.sumQuery(tableName, []int{a}, half(b), true)
		q.label = "filtered_aggregate"
		qs = append(qs, q)
	}
	return qs
}

// workDir is where durable_cycle keeps its store, inside the checkout.
const workDir = ".bench_build/tmp"

// runDurableCycle: FileDisk plus manifest at real CPU with fsync on every
// write. Each cycle runs the narrow queries cold, drains (checkpoint),
// reopens the store with OpenDurable and repeats the queries warm.
func runDurableCycle(r *runner) error {
	sc := r.scale()
	ds := newDataset(sc.durRows, sc.durCols, r.opt.seed)
	qs := durableQueries(ds)
	ds.dropValues()
	numChunks := (sc.durRows + sc.durChunk - 1) / sc.durChunk
	// The cache holds every chunk, so the safeguard flush at the end of
	// each scan persists everything the cold phase converted, whatever the
	// eviction path does.
	cfg := serving(sc.durChunk, numChunks)
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	rawDir, err := os.MkdirTemp(workDir, "raw-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(rawDir)
	rawPath := filepath.Join(rawDir, "data")
	if err := writeSynced(rawPath, ds.raw); err != nil {
		return err
	}
	// The store reads the raw file from disk; the benchmark keeps only its
	// fingerprint, so its own copy does not count toward the measured heap.
	fp := storepkg.FingerprintBytes(ds.raw)
	ds.raw = nil
	r.heapBaseline(nil)
	for round := 0; round < minRounds || !r.expired(); round++ {
		if err := r.durableCycle(ds.spec.Cols, rawPath, fp, qs, cfg); err != nil {
			return err
		}
	}
	r.cl.close()
	raw, err := os.ReadFile(rawPath)
	if err != nil {
		return err
	}
	return r.replayLayers(raw, sc.durCols, sc.durChunk, qs)
}

// writeSynced writes a file and flushes it to the device. Unflushed, the
// raw file's 11 MB would be written back while the first cycles run, and
// their fsyncs would wait for it.
func writeSynced(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	return errors.Join(err, f.Close())
}

// openDurable opens the store in dir the way scanrawd -data-dir does. A
// cold open first links the run's raw file into the fresh disk: a hard
// link stages it without rewriting (and later trimming) the raw bytes on
// every cycle, I/O that would disturb the fsyncs being measured.
func (r *runner) openDurable(dir, rawPath string, fp storepkg.Fingerprint, cols int, cfg scanraw.Config, cold bool) (*node, *storepkg.Manifest, time.Duration, error) {
	fd, err := storepkg.OpenFileDisk(filepath.Join(dir, "blobs"))
	if err != nil {
		return nil, nil, 0, err
	}
	if cold {
		dst := filepath.Join(fd.Root(), filepath.FromSlash(rawBlob))
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return nil, nil, 0, err
		}
		if err := os.Link(rawPath, dst); err != nil {
			return nil, nil, 0, err
		}
	}
	man, err := storepkg.OpenManifest(dir)
	if err != nil {
		return nil, nil, 0, err
	}
	start := time.Now()
	st, err := dbstore.OpenDurable(r.tr.disk(vdisk.NewBacked(modelDisk, fd)), man)
	recovery := time.Since(start)
	if err != nil {
		return nil, nil, 0, errors.Join(err, man.Close())
	}
	t, err := st.EnsureTable(tableName, schemaOf(cols), rawBlob, fp)
	if err != nil {
		return nil, nil, 0, errors.Join(err, man.Close())
	}
	n, err := r.startNode("node", st, t, cfg, fp.Size)
	if err != nil {
		return nil, nil, 0, errors.Join(err, man.Close())
	}
	return n, man, recovery, nil
}

func (r *runner) durableCycle(cols int, rawPath string, fp storepkg.Fingerprint, qs []query, cfg scanraw.Config) (err error) {
	dir, err := os.MkdirTemp(workDir, "durable-")
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(dir)) }()
	r.beginUnit()

	// Cold phase: speculation writes pages and journal records between reads.
	n, man, _, err := r.openDurable(dir, rawPath, fp, cols, cfg, true)
	if err != nil {
		return err
	}
	m := n.mark()
	pages := r.pageWrites()
	var sts []queryStats
	var queries time.Duration
	cold := time.Now()
	for i := range qs {
		mk := r.beginQ1(n)
		rep, lat := r.do(n.ln.url, &qs[i])
		if i == 0 {
			r.endQ1(mk, n)
			r.firsts = append(r.firsts, ms(lat))
		}
		queries += lat
		if rep != nil {
			sts = append(sts, rep.stats)
		}
	}
	// The cold writing phase ends when its writes are durable: the drain
	// waits out background speculative writes and checkpoints the catalog.
	if err := errors.Join(n.drain(), man.Close()); err != nil {
		return err
	}
	coldPhase := time.Since(cold)
	r.foldNode(n, m)
	r.lay.toConverge = append(r.lay.toConverge, firstNoRaw(sts))
	r.lay.pagesWritten = append(r.lay.pagesWritten, float64(r.pageWrites()-pages))

	// Restart: replay, page verification, EnsureTable, AddTable. The
	// restarted server keeps a one-chunk cache, so every warm query reads
	// its pages from the model disk: a warm query served from memory is
	// real CPU time alone, which on this shared host varies with its
	// neighbours' load.
	warm := cfg
	warm.CacheChunks = 1
	start := time.Now()
	n, man, recovery, err := r.openDurable(dir, rawPath, fp, cols, warm, false)
	if err != nil {
		return err
	}
	r.setups = append(r.setups, time.Since(start).Seconds())
	if r.tr != nil {
		r.lay.recoveryMS = append(r.lay.recoveryMS, ms(recovery))
	}
	snap := n.srv.MetricsSnapshot()
	var recErr error
	if snap.StoreChunksRecovered == 0 || snap.StoreChunksInvalidated != 0 {
		recErr = fmt.Errorf("durable_cycle: restart recovered %d chunks and invalidated %d",
			snap.StoreChunksRecovered, snap.StoreChunksInvalidated)
	}
	r.checkOp(recErr)

	// Warm passes: the same queries, twice, must convert nothing from raw.
	m = n.mark()
	noRaw := func(rep *reply) error {
		if rep.stats.readsRaw() {
			return fmt.Errorf("warm query after restart converted %d raw and %d partial chunks",
				rep.stats.ScanChunksRaw, rep.stats.ScanChunksPartial)
		}
		return nil
	}
	warmStart := time.Now()
	for pass := 0; pass < 2; pass++ {
		for i := range qs {
			if rep, lat := r.exec(n.ln.url, &qs[i], noRaw, true); rep != nil {
				r.addConverged(lat)
			}
		}
	}
	r.endUnit(queries+time.Since(warmStart), coldPhase)
	r.foldNode(n, m)
	replayErr := r.clusterReplay(n, &qs[0], 2)
	if err := errors.Join(n.drain(), man.Close(), replayErr); err != nil {
		return err
	}
	stored, err := dirBytes(dir, filepath.Join(dir, "blobs", filepath.FromSlash(rawBlob)))
	if err != nil {
		return err
	}
	r.stored = append(r.stored, float64(stored)/float64(fp.Size))
	return nil
}

// dirBytes sums the sizes of the regular files under dir, except skip.
func dirBytes(dir, skip string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || path == skip {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
