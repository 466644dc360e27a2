package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"scanraw/internal/dbstore"
	"scanraw/internal/gen"
	"scanraw/internal/scanraw"
	"scanraw/internal/schema"
	"scanraw/internal/server"
	storepkg "scanraw/internal/store"
	"scanraw/internal/vdisk"
)

// The serving stack, assembled the way cmd/scanrawd assembles it: a store
// over a disk, one table staged from a raw blob, a server.Server with the
// daemon's default serving configuration, and its handler behind a
// loopback listener.

const (
	tableName = "data"
	rawBlob   = "raw/data"
)

// serving is the daemon's default operator configuration (scanrawd flag
// defaults): 8 workers, speculative loading with the safeguard flush,
// payoff-ranked speculation over per-column pages, statistics on.
func serving(chunkLines, cacheChunks int) scanraw.Config {
	return scanraw.Config{
		Workers:      8,
		ChunkLines:   chunkLines,
		CacheChunks:  cacheChunks,
		Policy:       scanraw.Speculative,
		Safeguard:    true,
		CollectStats: true,
		Speculation:  scanraw.SpecPayoff,
	}
}

// listener is an HTTP server on a loopback port.
type listener struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		if err := l.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
	return l, nil
}

// close stops the server and waits for its accept loop to return.
func (l *listener) close() {
	_ = l.hs.Close() // only fails by reporting the listener's close error
	<-l.done
}

// node is one serving process: store, table, server and listener.
type node struct {
	disk  storepkg.Disk
	store *dbstore.Store
	table *dbstore.Table
	srv   *server.Server
	ln    *listener
	raw   int64 // raw file bytes
}

// startNode registers the staged table with a new server and starts
// serving it. name labels the node's handler in traces.
func (r *runner) startNode(name string, st *dbstore.Store, t *dbstore.Table, cfg scanraw.Config, raw int64) (*node, error) {
	srv := server.New(st, server.Config{})
	if err := srv.AddTable(t, cfg); err != nil {
		return nil, err
	}
	ln, err := listen(r.tr.handler(name, srv.Handler()))
	if err != nil {
		return nil, err
	}
	return &node{disk: st.Disk(), store: st, table: t, srv: srv, ln: ln, raw: raw}, nil
}

// memNode stages raw on a fresh in-memory disk with the given bandwidth
// model and starts serving it.
func (r *runner) memNode(name string, raw []byte, cols int, model vdisk.Config, cfg scanraw.Config) (*node, error) {
	vd := vdisk.New(model)
	vd.Preload(rawBlob, raw)
	st := dbstore.NewStore(r.tr.disk(vd))
	t, err := st.CreateTable(tableName, schemaOf(cols), rawBlob)
	if err != nil {
		return nil, err
	}
	return r.startNode(name, st, t, cfg, int64(len(raw)))
}

// schemaOf is the generated files' schema: cols integer columns c0, c1, ...
func schemaOf(cols int) *schema.Schema { return gen.CSVSpec{Cols: cols}.Schema() }

func (n *node) close() { n.ln.close() }

// operator returns the node's live operator for the table (created by the
// first query).
func (n *node) operator() (*scanraw.Operator, bool) {
	return n.srv.Registry().Lookup(n.table.RawFile())
}

// waitIdle waits for background speculative writes to finish.
func (n *node) waitIdle() {
	if op, ok := n.operator(); ok {
		op.WaitIdle()
	}
}

// storedBytes sums the page blobs the store holds for the table.
func (n *node) storedBytes() int64 {
	var total int64
	for _, b := range n.disk.List("db/") {
		if sz, err := n.disk.Size(b); err == nil {
			total += sz
		}
	}
	return total
}

// warm sends the full-width aggregate until the table is fully loaded:
// the "warm" set-up of serve_mix.
func (r *runner) warm(n *node, q *query) error {
	for i := 0; i < 20; i++ {
		if rep, _ := r.exec(n.ln.url, q, nil, false); rep == nil {
			return fmt.Errorf("warm-up query failed")
		}
		n.waitIdle()
		if n.table.FullyLoaded() {
			return nil
		}
	}
	return fmt.Errorf("table not fully loaded after 20 warm-up queries")
}

// drain shuts a node down the way scanrawd does on SIGTERM: stop
// accepting, drain in-flight work and checkpoint the catalog.
func (n *node) drain() error {
	n.ln.close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return n.srv.Drain(ctx)
}
