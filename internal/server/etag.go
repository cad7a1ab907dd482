package server

import (
	"crypto/rand"
	"encoding/binary"
	"net/http"
	"strconv"
	"sync/atomic"

	"probgraph/internal/core"
	"probgraph/internal/obs"
)

// taggedEndpoints are the reads an evaluating node tags and revalidates:
// every cacheable one. /query/stream is not among them — a stream's match
// lines arrive in scheduling order, so there is no one reply to keep.
var taggedEndpoints = []string{"query", "topk", "batch", "topk_walk"}

// tagger issues the entity tags (RFC 9110 §8.8.3) of an evaluating node's
// cacheable read replies and answers conditional requests for them
// (§13.1.2). A reply is a deterministic function of the database state and
// the request, so its tag names the state: "<nonce>-<generation>", the
// generation being that of the view that produced the reply. The nonce,
// drawn once per server, tells two processes at one generation apart: a
// snapshot stores its generation, so a shard re-cut and restarted can
// reopen at the very generation the old process served, with other
// graphs. A nil tagger — a fleet's server, or a node whose result cache is
// off — tags nothing and revalidates nothing.
type tagger struct {
	db          *core.Database
	nonce       string
	last        atomic.Pointer[genTag] // the tag formatted last
	notModified map[string]*obs.Counter
}

// genTag is one generation's formatted tag.
type genTag struct {
	gen uint64
	tag string
}

// newTagger draws the nonce and registers the per-endpoint 304 counters.
func newTagger(db *core.Database, reg *obs.Registry) *tagger {
	var b [8]byte
	rand.Read(b[:]) // crypto/rand.Read never returns an error: it crashes the program instead
	t := &tagger{db: db, nonce: strconv.FormatUint(binary.BigEndian.Uint64(b[:]), 16),
		notModified: make(map[string]*obs.Counter, len(taggedEndpoints))}
	for _, ep := range taggedEndpoints {
		t.notModified[ep] = reg.Counter("pg_not_modified_total",
			"Conditional reads per endpoint whose If-None-Match was the current tag, answered 304 without reading the body.",
			"endpoint", ep)
	}
	return t
}

// tag is the entity tag of a reply computed at generation gen, formatted
// once per generation rather than once per request.
func (t *tagger) tag(gen uint64) string {
	if g := t.last.Load(); g != nil && g.gen == gen {
		return g.tag
	}
	g := &genTag{gen: gen, tag: `"` + t.nonce + "-" + strconv.FormatUint(gen, 10) + `"`}
	t.last.Store(g)
	return g.tag
}

// set tags a 200 reply computed at generation gen.
func (t *tagger) set(w http.ResponseWriter, gen uint64) {
	if t != nil {
		w.Header().Set("ETag", t.tag(gen))
	}
}

// revalidate wraps a tagged endpoint's handler. A POST whose If-None-Match
// is the tag of the current view gets an empty 304 before its body is
// read, decoded, parsed or canonicalized: the reply the client holds is the
// one h would write, time_ms and cached aside. Any other request goes to
// h. The tag names the database state, not the request, so a client
// revalidates only the reply it holds for the very same path and body. The
// header is compared whole, as one strong tag: the one client that
// revalidates, the fleet coordinator, sends back the single tag it was
// given.
func (t *tagger) revalidate(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	if t == nil {
		return h
	}
	notModified := t.notModified[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		if inm := r.Header.Get("If-None-Match"); inm != "" && r.Method == http.MethodPost {
			if cur := t.tag(t.db.View().Generation); inm == cur {
				notModified.Inc()
				w.Header().Set("ETag", cur)
				w.WriteHeader(http.StatusNotModified)
				return
			}
		}
		h(w, r)
	}
}
