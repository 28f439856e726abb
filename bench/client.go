package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"seda/internal/rel"
	"seda/internal/store"
	"seda/internal/summary"
	"seda/internal/topk"
)

// requestTimeout bounds one HTTP request, body included; a request that
// exceeds it fails its op.
const requestTimeout = 10 * time.Second

// client is one closed-loop analyst: a keep-alive HTTP connection that sends
// its next request only after the previous reply is fully read.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call sends one request with an optional JSON body and decodes the JSON
// reply into out (nil discards it). A status other than want is an error
// carrying the server's message.
func (c *client) call(method, path string, body any, want int, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(raw))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
	}
	return nil
}

// session starts an exploration and returns its id.
func (c *client) session(collection, query string) (string, error) {
	var out struct {
		Session string `json:"session"`
	}
	err := c.call("POST", "/sessions", map[string]string{"collection": collection, "query": query}, http.StatusCreated, &out)
	return out.Session, err
}

func (c *client) topk(session string, k int) (wireTopK, error) {
	var out wireTopK
	err := c.call("GET", "/sessions/"+session+"/topk?k="+strconv.Itoa(k), nil, http.StatusOK, &out)
	return out, err
}

func (c *client) endSession(session string) error {
	return c.call("DELETE", "/sessions/"+session, nil, http.StatusNoContent, nil)
}

// --- the answer oracle's canonical forms ---
//
// Every answer, whether decoded from an HTTP reply or returned by the
// library, is reduced to the same canonical strings and folded into one
// digest per op; the oracle compares digests.

type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(parts ...string) {
	for _, p := range parts {
		fmt.Fprintf(d.h, "%d:%s,", len(p), p)
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:8]) }

func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// wireTopK is the part of a top-k reply the oracle reads.
type wireTopK struct {
	Cached  bool `json:"cached"`
	Results []struct {
		Score float64 `json:"score"`
		Nodes []struct {
			Node string `json:"node"`
			Path string `json:"path"`
			Text string `json:"text"`
		} `json:"nodes"`
	} `json:"results"`
}

// addTo folds ranks, scores, node refs and paths into d.
func (w wireTopK) addTo(d *digest) {
	d.add("topk", strconv.Itoa(len(w.Results)))
	for _, r := range w.Results {
		d.add(fmtFloat(r.Score))
		for _, n := range r.Nodes {
			d.add(n.Node, n.Path)
		}
	}
}

func addTopK(d *digest, col *store.Collection, rs []topk.Result) {
	dict := col.Dict()
	d.add("topk", strconv.Itoa(len(rs)))
	for _, r := range rs {
		d.add(fmtFloat(r.Score))
		for j, ref := range r.Nodes {
			d.add(ref.String(), dict.Path(r.Paths[j]))
		}
	}
}

type wireContexts struct {
	Contexts []struct {
		Term    string `json:"term"`
		Entries []struct {
			Path        string `json:"path"`
			DocFreq     int    `json:"doc_freq"`
			Occurrences int    `json:"occurrences"`
		} `json:"entries"`
	} `json:"contexts"`
}

func (w wireContexts) addTo(d *digest) {
	d.add("contexts")
	for _, b := range w.Contexts {
		d.add(b.Term)
		for _, e := range b.Entries {
			d.add(e.Path, strconv.Itoa(e.DocFreq), strconv.Itoa(e.Occurrences))
		}
	}
}

func addContexts(d *digest, buckets []summary.ContextBucket) {
	d.add("contexts")
	for _, b := range buckets {
		d.add(b.Term.String())
		for _, e := range b.Entries {
			d.add(e.PathString, strconv.Itoa(e.DocFreq), strconv.Itoa(e.Occurrences))
		}
	}
}

// connection is the canonical form of one connection-summary entry; it is
// also what a script reads to choose connections, over HTTP and in replay.
type connection struct {
	Kind     string `json:"kind"`
	TermA    int    `json:"term_a"`
	TermB    int    `json:"term_b"`
	PathA    string `json:"path_a"`
	PathB    string `json:"path_b"`
	JoinPath string `json:"join_path"`
	Label    string `json:"link_label"`
	Support  int    `json:"support"`
}

func addConnections(d *digest, conns []connection) {
	d.add("connections")
	for _, c := range conns {
		d.add(c.Kind, strconv.Itoa(c.TermA), strconv.Itoa(c.TermB), c.PathA, c.PathB, c.JoinPath, c.Label, strconv.Itoa(c.Support))
	}
}

func libConnections(col *store.Collection, conns []summary.Connection) []connection {
	dict := col.Dict()
	out := make([]connection, len(conns))
	for i, c := range conns {
		out[i] = connection{TermA: c.TermA, TermB: c.TermB, PathA: dict.Path(c.PathA), PathB: dict.Path(c.PathB), Support: c.Support}
		if c.Kind == summary.Tree {
			out[i].Kind, out[i].JoinPath = "tree", dict.Path(c.JoinPath)
		} else {
			out[i].Kind, out[i].Label = "link", c.Link.Label
		}
	}
	return out
}

// wireTable is a relational table on the wire; cells are JSON strings,
// numbers or null.
type wireTable struct {
	Name      string   `json:"name"`
	Cols      []string `json:"cols"`
	RowsTotal int      `json:"rows_total"`
	Rows      [][]any  `json:"rows"`
}

// addRows folds a table into d with its rows sorted, so the digest does not
// depend on row order.
func addRows(d *digest, name string, cols []string, rows []string) {
	sort.Strings(rows)
	d.add("table", name, strings.Join(cols, "\x1f"), strconv.Itoa(len(rows)))
	d.add(rows...)
}

func (t wireTable) addTo(d *digest) {
	rows := make([]string, len(t.Rows))
	for i, r := range t.Rows {
		cells := make([]string, len(r))
		for j, v := range r {
			switch x := v.(type) {
			case nil:
				cells[j] = "null"
			case float64:
				cells[j] = "n" + fmtFloat(x)
			case string:
				cells[j] = "s" + x
			}
		}
		rows[i] = strings.Join(cells, "\x1f")
	}
	addRows(d, t.Name, t.Cols, rows)
}

func addTable(d *digest, t *rel.Table) {
	rows := make([]string, len(t.Rows))
	for i, r := range t.Rows {
		cells := make([]string, len(r))
		for j, v := range r {
			switch {
			case v.IsNull:
				cells[j] = "null"
			case v.IsNum:
				cells[j] = "n" + fmtFloat(v.Num)
			default:
				cells[j] = "s" + v.Str
			}
		}
		rows[i] = strings.Join(cells, "\x1f")
	}
	addRows(d, t.Name, t.Cols, rows)
}
