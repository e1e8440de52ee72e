// Command pdedupd serves incremental duplicate detection over HTTP:
// a long-lived daemon around N sharded online engines, fed over NDJSON
// and observed over server-sent events.
//
// Usage:
//
//	pdedupd -addr 127.0.0.1:7333 -schema name,job -key 'name:3' [flags]
//
// Each arriving tuple is routed by its conflict-resolved blocking key
// to one of -shards engine instances, so ingest, verification and
// delta emission parallelize across shards while the union of the
// per-shard results stays equivalent to a single-instance run (the
// reduction must therefore be a blocking method; sorted-neighborhood
// reductions are rejected at startup). With -state DIR every shard is
// durable under DIR/shard-K and a restart recovers the full resident
// state.
//
// Endpoints:
//
//	POST /v1/tuples    NDJSON stream (or any concatenation of JSON
//	                   values): each item is either a tuple in the
//	                   pdedup -follow wire form — {"id":"t1","alts":...}
//	                   or {"id":"t1","p":1,"attrs":...} — or a removal
//	                   {"remove":"t1"}. Items apply in order until the
//	                   first failure; the JSON reply reports accepted
//	                   and removed counts and, on failure, the 0-based
//	                   failing item and its error. A full shard queue
//	                   yields 429 with Retry-After; resend the items
//	                   from the reported index. A body over 16 MiB
//	                   yields 413 at the item the limit cuts (the items
//	                   before it stay applied). During shutdown the
//	                   endpoint yields 503. A shard whose engine has
//	                   failed yields 500 for every item routed to it;
//	                   resending does not help.
//	GET  /v1/deltas    server-sent events: one "match" event per match
//	                   delta ({"kind","a","b","sim","class","shard"};
//	                   class is "m" or "p", a non-match is no delta),
//	                   then a final "end" event when the daemon drains
//	                   or the subscriber falls behind. Unavailable with
//	                   -integrate (the integrator consumes match
//	                   deltas).
//	GET  /v1/entities  server-sent events: one "event" per entity delta
//	                   ({"event","id","members","from","shard"}); only
//	                   with -integrate.
//	GET  /v1/stats     aggregated and per-shard engine statistics.
//
// Backpressure: each shard owns a bounded admission queue (-queue).
// Admission never blocks the HTTP handler — a full queue rejects with
// 429 and the client retries — so slow verification on one hot shard
// degrades that shard's ingest only. A subscriber that cannot keep up
// with the delta stream is dropped (its stream ends) rather than
// stalling shard workers.
//
// Request headers must arrive within 10 s of connecting; there is no
// write timeout, so event streams live as long as their subscriber.
//
// SIGINT/SIGTERM drain gracefully: new ingest is refused, every queued
// operation is applied, durable shards checkpoint and release their
// locks, every event stream ends, and the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"

	"probdedup/internal/cliopts"
	"probdedup/internal/shard"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run executes the daemon; separated from main for testability. When
// ready is non-nil it receives the bound listen address (useful with
// -addr 127.0.0.1:0) once the listener is accepting.
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("pdedupd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	df := cliopts.Register(fs, "blocking-certain", map[string]string{
		"key":       "blocking key definition, e.g. 'name:3+job:2' (required)",
		"reduce":    "reduction method; must be shardable (blocking over certain keys)",
		"workers":   "verification workers per shard",
		"prefilter": "enable the symbol-plane candidate pre-filter per shard",
		"qgram":     "gram size of the pre-filter's q-gram count filters (0 = 2)",
	})
	var (
		addr       = fs.String("addr", "127.0.0.1:7333", "listen address (host:port; port 0 picks a free port)")
		schemaSpec = fs.String("schema", "", "comma-separated attribute names, e.g. 'name,job' (required)")
		shards     = fs.Int("shards", 4, "number of shard engines")
		queue      = fs.Int("queue", shard.DefaultQueueDepth, "per-shard admission queue depth (full queue rejects with 429)")
		integrate  = fs.Bool("integrate", false, "fold match deltas into live entity sets; /v1/entities replaces /v1/deltas")
		stateDir   = fs.String("state", "", "durable state directory; each shard persists under DIR/shard-K and recovers on restart")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintln(stderr, "pdedupd: unexpected arguments; all input arrives over POST /v1/tuples")
		return 2
	}
	if *schemaSpec == "" {
		fmt.Fprintln(stderr, "pdedupd: -schema is required")
		return 2
	}
	if df.Key == "" {
		fmt.Fprintln(stderr, "pdedupd: -key is required (shard routing and blocking share the key)")
		return 2
	}
	if *shards < 1 || *queue < 1 {
		fmt.Fprintln(stderr, "pdedupd: -shards and -queue must be >= 1")
		return 2
	}
	if err := df.Validate(); err != nil {
		fmt.Fprintln(stderr, "pdedupd:", err)
		return 2
	}
	schema, err := cliopts.ParseSchema(*schemaSpec)
	if err != nil {
		fmt.Fprintln(stderr, "pdedupd: -schema:", err)
		return 2
	}

	opts, err := df.Options(schema)
	if err != nil {
		fmt.Fprintln(stderr, "pdedupd:", err)
		return 1
	}

	router, err := shard.Open(shard.Config{
		Shards:     *shards,
		Schema:     schema,
		Opts:       opts,
		Integrate:  *integrate,
		StateDir:   *stateDir,
		QueueDepth: *queue,
	})
	if err != nil {
		fmt.Fprintln(stderr, "pdedupd:", err)
		return 1
	}

	srv := newServer(router, *integrate)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "pdedupd:", err)
		router.Close()
		return 1
	}

	// Register the handler before the address is announced so a test
	// that connects the instant ready fires cannot race the signal
	// plumbing.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	hs := newHTTPServer(srv)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(stdout, "pdedupd: listening on %s (%d shards, schema %v)\n", ln.Addr(), *shards, schema)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case sig := <-sigc:
		fmt.Fprintf(stderr, "pdedupd: %v: draining\n", sig)
		srv.draining.Store(true)
		rc := 0
		// Close the router before shutting the HTTP server down: Close
		// drains every shard queue, checkpoints durable state, and closes
		// the subscriber channels, which is what lets the long-lived SSE
		// handlers finish — Shutdown waits for them.
		if err := router.Close(); err != nil {
			fmt.Fprintln(stderr, "pdedupd:", err)
			rc = 1
		}
		if err := hs.Shutdown(context.Background()); err != nil {
			fmt.Fprintln(stderr, "pdedupd:", err)
			rc = 1
		}
		fmt.Fprintln(stdout, "pdedupd: drained")
		return rc
	case err := <-errc:
		fmt.Fprintln(stderr, "pdedupd:", err)
		router.Close()
		return 1
	}
}
