package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// queryStats is the stats block of a /query reply (the fields the
// benchmark reads).
type queryStats struct {
	DurationMS        float64   `json:"duration_ms"`
	ScanChunksCache   int       `json:"scan_chunks_cache"`
	ScanChunksDB      int       `json:"scan_chunks_db"`
	ScanChunksRaw     int       `json:"scan_chunks_raw"`
	ScanChunksPartial int       `json:"scan_chunks_partial"`
	OLA               *olaStats `json:"ola"`
}

type olaStats struct {
	ChunksSampled int     `json:"chunks_sampled"`
	ChunksTotal   int     `json:"chunks_total"`
	MaxRelError   float64 `json:"max_rel_error"`
	Converged     bool    `json:"converged"`
	Exact         bool    `json:"exact"`
}

// readsRaw reports whether the query converted anything from the raw file.
func (s queryStats) readsRaw() bool { return s.ScanChunksRaw > 0 || s.ScanChunksPartial > 0 }

// reply is a decoded /query response.
type reply struct {
	rows  [][]any // numbers as json.Number
	stats queryStats
}

// client sends queries over keep-alive loopback connections.
type client struct {
	hc *http.Client
}

func newClient(conns int) *client {
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

// close drops the idle connections (the servers of a round are gone).
func (c *client) close() { c.hc.CloseIdleConnections() }

// send posts one query and decodes the reply; the returned duration is the
// client-side latency, from sending the request to the last byte read.
func (c *client) send(base string, q *query) (*reply, time.Duration, error) {
	body, err := json.Marshal(map[string]string{"sql": q.sql})
	if err != nil {
		return nil, 0, err
	}
	url := base + "/query"
	if q.params != "" {
		url += "?" + q.params
	}
	start := time.Now()
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return nil, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, lat, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var rep *reply
	if q.kind == ndjsonRows {
		rep, err = decodeNDJSON(data)
	} else {
		rep, err = decodeJSON(data)
	}
	return rep, lat, err
}

func decodeJSON(data []byte) (*reply, error) {
	var out struct {
		Rows  [][]any    `json:"rows"`
		Stats queryStats `json:"stats"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&out); err != nil {
		return nil, fmt.Errorf("decoding reply: %w", err)
	}
	return &reply{rows: out.Rows, stats: out.Stats}, nil
}

// decodeNDJSON reassembles a streamed reply: a columns header, one line per
// row, and a stats trailer; an in-band error line fails the query.
func decodeNDJSON(data []byte) (*reply, error) {
	rep := &reply{}
	sawStats := false
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if line[0] == '[' {
			var row []any
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.UseNumber()
			if err := dec.Decode(&row); err != nil {
				return nil, fmt.Errorf("decoding row line: %w", err)
			}
			rep.rows = append(rep.rows, row)
			continue
		}
		var obj struct {
			Columns []string    `json:"columns"`
			Stats   *queryStats `json:"stats"`
			Error   string      `json:"error"`
		}
		if err := json.Unmarshal(line, &obj); err != nil {
			return nil, fmt.Errorf("decoding ndjson line: %w", err)
		}
		if obj.Error != "" {
			return nil, fmt.Errorf("in-band error: %s", obj.Error)
		}
		if obj.Stats != nil {
			rep.stats = *obj.Stats
			sawStats = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawStats {
		return nil, fmt.Errorf("stream ended without a stats trailer")
	}
	return rep, nil
}

// check verifies a reply against the query's expected answer.
func check(rep *reply, q *query) error {
	if q.kind == olaJSON {
		return checkOLA(rep, q)
	}
	return checkRows(rep.rows, q.want, q.ordered)
}
