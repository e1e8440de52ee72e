package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"probdedup/internal/codec"
	"probdedup/internal/core"
	"probdedup/internal/shard"
)

// sseBuffer is the per-subscriber event buffer: deep enough to absorb
// a verification burst while the client reads, small enough that a
// stuck client is dropped before it holds meaningful memory (about
// 1.4 MB of entity events). Each shard emits a coalesced batch of up
// to 256 insertions at once; on a 2-core box, with two shards ingesting
// at full speed, the stream writer was measured up to ~2k events
// behind, so a buffer of 4k dropped live subscribers now and then.
const sseBuffer = 1 << 14

// Fixed limits against hostile or broken clients. There is no write
// timeout: an event stream lives as long as its subscriber reads.
const (
	// maxIngestBody bounds one POST /v1/tuples body. Items that end
	// within it are applied; the item it cuts answers 413, and the
	// client resends from there in a new request.
	maxIngestBody = 16 << 20
	// readHeaderTimeout bounds how long a client may take to send its
	// request headers, so a slow sender cannot hold a connection open
	// without ever making a request.
	readHeaderTimeout = 10 * time.Second
)

// newHTTPServer wraps the handler in an http.Server with the limits
// above.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

// server is the HTTP surface over one shard.Router.
type server struct {
	router    *shard.Router
	integrate bool
	// draining refuses new ingest with 503 once shutdown has begun, so
	// the router drain converges instead of racing fresh admissions.
	draining atomic.Bool
	mux      *http.ServeMux
}

func newServer(router *shard.Router, integrate bool) *server {
	s := &server{router: router, integrate: integrate}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/tuples", s.handleTuples)
	s.mux.HandleFunc("/v1/deltas", s.handleDeltas)
	s.mux.HandleFunc("/v1/entities", s.handleEntities)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// ingestReply is the JSON body of every /v1/tuples response. On
// failure Item is the 0-based index of the offending input item, and
// Accepted/Removed count what was applied before it — the client
// resends from Item.
type ingestReply struct {
	Accepted int    `json:"accepted"`
	Removed  int    `json:"removed"`
	Item     *int   `json:"item,omitempty"`
	Error    string `json:"error,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// statusFor maps an admission error to its HTTP status; retryable
// reports whether the client should back off and resend (429).
func statusFor(err error) (code int, retryable bool) {
	var over *shard.OverloadedError
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &over):
		return http.StatusTooManyRequests, true
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge, false
	case errors.Is(err, shard.ErrClosed):
		return http.StatusServiceUnavailable, false
	case errors.Is(err, shard.ErrShardFailed):
		return http.StatusInternalServerError, false
	case errors.Is(err, core.ErrUnknownID):
		return http.StatusNotFound, false
	default:
		return http.StatusBadRequest, false
	}
}

// failItem answers a /v1/tuples request whose item-th input failed.
func failItem(w http.ResponseWriter, reply ingestReply, item int, err error) {
	code, retry := statusFor(err)
	if retry {
		w.Header().Set("Retry-After", "1")
	}
	reply.Item, reply.Error = &item, err.Error()
	writeJSON(w, code, reply)
}

func (s *server) handleTuples(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, ingestReply{Error: "draining"})
		return
	}
	// json.Decoder reads a concatenation of JSON values, which NDJSON
	// is — no per-line framing needed, and a pretty-printed single
	// tuple works too. Each value is decoded exactly once.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBody))
	var reply ingestReply
	for item := 0; ; item++ {
		var it codec.IngestItem
		if err := dec.Decode(&it); err == io.EOF {
			break
		} else if err != nil {
			failItem(w, reply, item, fmt.Errorf("json: %w", err))
			return
		}
		x, err := it.XTuple()
		switch {
		case err != nil: // a shape the codec refuses
		case x == nil:
			if err = s.router.Remove(*it.Remove); err == nil {
				reply.Removed++
			}
		default:
			if err = s.router.Ingest(x); err == nil {
				reply.Accepted++
			}
		}
		if err != nil {
			failItem(w, reply, item, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, reply)
}

// sseMatch is the wire form of one /v1/deltas event.
type sseMatch struct {
	Kind  string  `json:"kind"`
	A     string  `json:"a"`
	B     string  `json:"b"`
	Sim   float64 `json:"sim"`
	Class string  `json:"class"`
	Shard int     `json:"shard"`
}

// sseEntity is the wire form of one /v1/entities event.
type sseEntity struct {
	Event   string   `json:"event"`
	ID      string   `json:"id"`
	Members []string `json:"members"`
	From    []string `json:"from,omitempty"`
	Shard   int      `json:"shard"`
}

// startSSE switches the response into event-stream mode, or answers
// with an error when the connection cannot stream.
func startSSE(w http.ResponseWriter) http.Flusher {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return nil
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	return fl
}

func writeSSE(w io.Writer, fl http.Flusher, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	fl.Flush()
}

// streamSSE serves one delta subscription as server-sent events: wire
// renders each delivered event under its event name, and a final "end"
// event follows when the router drains or this subscriber fell behind
// and was dropped — either way the stream is complete as delivered.
// When the daemon's mode feeds the other stream (!served), the answer
// is 404 with elsewhere as its body.
func streamSSE[T any](w http.ResponseWriter, r *http.Request, served bool, elsewhere string,
	subscribe func(buf int) (<-chan T, func()), wire func(T) (event string, v any)) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	if !served {
		http.Error(w, elsewhere, http.StatusNotFound)
		return
	}
	sub, cancel := subscribe(sseBuffer)
	defer cancel()
	fl := startSSE(w)
	if fl == nil {
		return
	}
	for {
		select {
		case ev, ok := <-sub:
			if !ok {
				writeSSE(w, fl, "end", struct{}{})
				return
			}
			event, v := wire(ev)
			writeSSE(w, fl, event, v)
		case <-r.Context().Done():
			return
		}
	}
}

func (s *server) handleDeltas(w http.ResponseWriter, r *http.Request) {
	const elsewhere = "match deltas are consumed by the integrator; subscribe to /v1/entities"
	streamSSE(w, r, !s.integrate, elsewhere, s.router.SubscribeMatches, func(ev shard.MatchEvent) (string, any) {
		return "match", sseMatch{
			Kind:  ev.Delta.Kind.String(),
			A:     ev.Delta.Pair.A,
			B:     ev.Delta.Pair.B,
			Sim:   ev.Delta.Sim,
			Class: ev.Delta.Class.String(),
			Shard: ev.Shard,
		}
	})
}

func (s *server) handleEntities(w http.ResponseWriter, r *http.Request) {
	const elsewhere = "entity deltas flow with -integrate only; subscribe to /v1/deltas"
	streamSSE(w, r, s.integrate, elsewhere, s.router.SubscribeEntities, func(ev shard.EntityEvent) (string, any) {
		return "entity", sseEntity{
			Event: ev.Delta.Kind.String(),
			ID:    ev.Delta.Entity.ID,
			// The integrator emits defensive copies, so the slices are
			// owned by this event and marshaled immediately.
			Members: ev.Delta.Entity.Members,
			From:    ev.Delta.From,
			Shard:   ev.Shard,
		}
	})
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, s.router.Stats())
}
