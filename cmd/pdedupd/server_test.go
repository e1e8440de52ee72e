package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"probdedup"
	"probdedup/internal/cliopts"
	"probdedup/internal/shard"
)

// The daemon tests stop the server by signaling the test process
// itself (the in-process run() has the handler installed), so they
// must not run in parallel with each other.

// daemon wraps one in-process run() invocation.
type daemon struct {
	t       *testing.T
	addr    string
	rc      chan int
	out     *bytes.Buffer
	errOut  *bytes.Buffer
	stopped bool
	code    int
}

// startDaemon launches run() on a loopback port and waits until it
// accepts connections.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	all := append([]string{"-addr", "127.0.0.1:0"}, args...)
	ready := make(chan string, 1)
	d := &daemon{t: t, rc: make(chan int, 1), out: &bytes.Buffer{}, errOut: &bytes.Buffer{}}
	go func() { d.rc <- run(all, d.out, d.errOut, ready) }()
	select {
	case d.addr = <-ready:
	case rc := <-d.rc:
		d.stopped, d.code = true, rc
		t.Fatalf("daemon exited %d before ready: %s", rc, d.errOut.String())
	}
	t.Cleanup(func() { d.stop() })
	return d
}

// stop SIGTERMs the daemon (idempotently) and returns its exit code.
func (d *daemon) stop() int {
	d.t.Helper()
	if d.stopped {
		return d.code
	}
	d.stopped = true
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		d.t.Fatal(err)
	}
	d.code = <-d.rc
	return d.code
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// postTuples POSTs an NDJSON body and decodes the reply.
func postTuples(t *testing.T, d *daemon, body string) (int, ingestReply) {
	t.Helper()
	resp, err := http.Post(d.url("/v1/tuples"), "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reply ingestReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatalf("decoding /v1/tuples reply: %v", err)
	}
	return resp.StatusCode, reply
}

// statsWithResidents polls /v1/stats until it reports want residents,
// for up to ~10 s, and returns the last snapshot. A POST answers once
// its items are queued, before the shard workers apply (and with -state
// log and sync) them, so a read right after one may see the engines
// behind.
func statsWithResidents(t *testing.T, d *daemon, want int) shard.Stats {
	t.Helper()
	var st shard.Stats
	for try := 0; try < 1000; try++ {
		resp, err := http.Get(d.url("/v1/stats"))
		if err != nil {
			t.Fatal(err)
		}
		st = shard.Stats{}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Detector.Residents == want {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	return st
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data string
}

// collectSSE subscribes to an event stream and feeds parsed events to
// a channel that closes when the stream ends (the daemon drained).
func collectSSE(t *testing.T, url string) <-chan sseEvent {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("GET %s: Content-Type %q", url, ct)
	}
	ch := make(chan sseEvent, 1<<14)
	go func() {
		defer close(ch)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		var name string
		for sc.Scan() {
			if after, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
				name = after
			} else if after, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
				ch <- sseEvent{name: name, data: after}
			}
		}
	}()
	return ch
}

// testSchema and the flag set below are shared by the daemon and the
// single-instance reference run, so their engines are configured
// identically.
var testSchema = []string{"name", "job"}

func daemonArgs(extra ...string) []string {
	return append([]string{
		"-schema", "name,job", "-key", "name:3",
		"-reduce", "blocking-certain", "-compare", "levenshtein",
	}, extra...)
}

func refOptions(t *testing.T) probdedup.Options {
	t.Helper()
	cmp, err := cliopts.Compare("levenshtein")
	if err != nil {
		t.Fatal(err)
	}
	opts := probdedup.Options{
		Compare: []probdedup.CompareFunc{cmp, cmp},
		AltModel: probdedup.WeightedSumModel{
			Weights: cliopts.EqualWeights(len(testSchema)),
			T:       probdedup.Thresholds{Lambda: 0.4, Mu: 0.7},
		},
		Final: probdedup.Thresholds{Lambda: 0.4, Mu: 0.7},
	}
	opts.Derivation, err = cliopts.Derivation("similarity")
	if err != nil {
		t.Fatal(err)
	}
	def, err := probdedup.ParseKeyDef("name:3", testSchema)
	if err != nil {
		t.Fatal(err)
	}
	opts.Reduction, err = cliopts.Reduction("blocking-certain", def, 3, 8, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return opts
}

// corpus returns n single-alternative tuples over a handful of name
// blocks (typo clusters), as both NDJSON lines and decoded tuples.
func corpus(t *testing.T, n int) (lines []string, tuples []*probdedup.XTuple) {
	t.Helper()
	names := []string{"Johnson", "Jonson", "Johnsen", "Smith", "Smithe", "Baker", "Bakker", "Clark", "Clarke", "Miller"}
	jobs := []string{"pilot", "nurse", "clerk"}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("t%03d", i)
		name, job := names[i%len(names)], jobs[i%len(jobs)]
		lines = append(lines, fmt.Sprintf(`{"id":%q,"attrs":[[{"v":%q}],[{"v":%q}]]}`, id, name, job))
		tuples = append(tuples, probdedup.NewXTuple(id, probdedup.NewAlt(1, name, job)))
	}
	return lines, tuples
}

func canonDelta(kind, a, b string, sim float64, class string) string {
	return fmt.Sprintf("%s|%s|%s|%016x|%s", kind, a, b, math.Float64bits(sim), class)
}

// refDeltas replays ops on a single-instance Detector and returns the
// canonical multiset of its match deltas.
func refDeltas(t *testing.T, adds []*probdedup.XTuple, removes []string) []string {
	t.Helper()
	var got []string
	det, err := probdedup.NewDetector(testSchema, refOptions(t), func(md probdedup.MatchDelta) bool {
		got = append(got, canonDelta(md.Kind.String(), md.Pair.A, md.Pair.B, md.Sim, md.Class.String()))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := det.AddBatch(adds); err != nil {
		t.Fatal(err)
	}
	for _, id := range removes {
		if err := det.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(got)
	return got
}

// TestEndToEndLoopback is the CI smoke: concurrent clients push NDJSON
// at a live loopback daemon while an SSE subscriber collects the match
// stream; after a SIGTERM drain, the collected deltas are the exact
// multiset a single-instance batch run produces on the same input.
func TestEndToEndLoopback(t *testing.T) {
	d := startDaemon(t, daemonArgs("-shards", "4", "-workers", "2")...)
	events := collectSSE(t, d.url("/v1/deltas"))

	const n = 60
	lines, tuples := corpus(t, n)
	const clients = 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Each client owns a stride of the corpus and posts it in
			// small NDJSON batches.
			for lo := c; lo < n; lo += 4 * clients {
				var b strings.Builder
				for i := lo; i < n && i < lo+4*clients; i += clients {
					b.WriteString(lines[i])
					b.WriteByte('\n')
				}
				resp, err := http.Post(d.url("/v1/tuples"), "application/x-ndjson", strings.NewReader(b.String()))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: POST status %d", c, resp.StatusCode)
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// The admission map is synchronous, so the daemon already counts
	// every resident even while verification drains asynchronously.
	resp, err := http.Get(d.url("/v1/stats"))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var st shard.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Shards != 4 || len(st.PerShard) != 4 {
		t.Fatalf("stats shards = %d (%d per-shard entries), want 4", st.Shards, len(st.PerShard))
	}
	// The drop counter is on the wire even at zero: an operator reads
	// "nobody was dropped", not "this build does not count".
	if !bytes.Contains(body, []byte(`"DroppedSubscribers":0`)) {
		t.Fatalf("/v1/stats lacks the DroppedSubscribers counter: %s", body)
	}

	if rc := d.stop(); rc != 0 {
		t.Fatalf("daemon exited %d: %s", rc, d.errOut.String())
	}
	if !strings.Contains(d.errOut.String(), "draining") {
		t.Fatalf("stderr missing drain notice:\n%s", d.errOut.String())
	}

	var got []string
	sawEnd := false
	for ev := range events {
		switch ev.name {
		case "match":
			var m sseMatch
			if err := json.Unmarshal([]byte(ev.data), &m); err != nil {
				t.Fatalf("bad match event %q: %v", ev.data, err)
			}
			if m.Class != "m" && m.Class != "p" {
				t.Fatalf("match event of class %q: only M and P pairs have deltas", m.Class)
			}
			got = append(got, canonDelta(m.Kind, m.A, m.B, m.Sim, m.Class))
		case "end":
			sawEnd = true
		}
	}
	if !sawEnd {
		t.Fatal("stream ended without an end event (subscriber dropped?)")
	}
	sort.Strings(got)
	want := refDeltas(t, tuples, nil)
	if len(want) == 0 {
		t.Fatal("reference run found no deltas; corpus is too tame to test anything")
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("SSE deltas diverge from single-instance run:\ngot  %d:\n%s\nwant %d:\n%s",
			len(got), strings.Join(got, "\n"), len(want), strings.Join(want, "\n"))
	}
}

// TestRemovalsAndAdmissionErrors drives the /v1/tuples error surface
// sequentially: removals retract pairs over SSE, and each failure mode
// maps to its documented status with the failing item index.
func TestRemovalsAndAdmissionErrors(t *testing.T) {
	d := startDaemon(t, daemonArgs("-shards", "2")...)
	events := collectSSE(t, d.url("/v1/deltas"))

	code, reply := postTuples(t, d,
		`{"id":"a","attrs":[[{"v":"Johnson"}],[{"v":"pilot"}]]}`+"\n"+
			`{"id":"b","attrs":[[{"v":"Johnsen"}],[{"v":"pilot"}]]}`+"\n"+
			`{"id":"c","attrs":[[{"v":"Johnsons"}],[{"v":"pilot"}]]}`+"\n")
	if code != http.StatusOK || reply.Accepted != 3 || reply.Removed != 0 {
		t.Fatalf("seed post: %d %+v", code, reply)
	}
	code, reply = postTuples(t, d, `{"remove":"b"}`)
	if code != http.StatusOK || reply.Removed != 1 {
		t.Fatalf("remove post: %d %+v", code, reply)
	}

	// Unknown ID → 404, reported at its item index after one applied item.
	code, reply = postTuples(t, d, `{"remove":"c"}`+"\n"+`{"remove":"ghost"}`)
	if code != http.StatusNotFound || reply.Removed != 1 || reply.Item == nil || *reply.Item != 1 {
		t.Fatalf("unknown remove: %d %+v", code, reply)
	}
	// Duplicate ID → 400.
	code, reply = postTuples(t, d, `{"id":"a","attrs":[[{"v":"X"}],[{"v":"y"}]]}`)
	if code != http.StatusBadRequest || reply.Item == nil || *reply.Item != 0 {
		t.Fatalf("duplicate id: %d %+v", code, reply)
	}
	// Arity mismatch → 400.
	code, reply = postTuples(t, d, `{"id":"z","attrs":[[{"v":"only-one"}]]}`)
	if code != http.StatusBadRequest {
		t.Fatalf("arity mismatch: %d %+v", code, reply)
	}
	// Malformed JSON → 400.
	code, reply = postTuples(t, d, `{"id": `)
	if code != http.StatusBadRequest || !strings.Contains(reply.Error, "json") {
		t.Fatalf("malformed json: %d %+v", code, reply)
	}
	// Wrong methods and the integrate-only stream.
	if resp, err := http.Get(d.url("/v1/tuples")); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/tuples: %d", resp.StatusCode)
	}
	if resp, err := http.Get(d.url("/v1/entities")); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/entities without -integrate: %d", resp.StatusCode)
	}

	if rc := d.stop(); rc != 0 {
		t.Fatalf("daemon exited %d: %s", rc, d.errOut.String())
	}
	var got []string
	for ev := range events {
		if ev.name != "match" {
			continue
		}
		var m sseMatch
		if err := json.Unmarshal([]byte(ev.data), &m); err != nil {
			t.Fatal(err)
		}
		got = append(got, canonDelta(m.Kind, m.A, m.B, m.Sim, m.Class))
	}
	sort.Strings(got)
	want := refDeltas(t,
		[]*probdedup.XTuple{
			probdedup.NewXTuple("a", probdedup.NewAlt(1, "Johnson", "pilot")),
			probdedup.NewXTuple("b", probdedup.NewAlt(1, "Johnsen", "pilot")),
			probdedup.NewXTuple("c", probdedup.NewAlt(1, "Johnsons", "pilot")),
		},
		[]string{"b", "c"},
	)
	if len(want) == 0 {
		t.Fatal("reference run produced no deltas; the typo cluster should match")
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("deltas with removals diverge:\ngot:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestIngestItemShapes pins the one-pass decode of /v1/tuples: a
// removal whose ID is not a string and a removal mixed with tuple fields
// are refused as what they are, with the item index and nothing of the
// item applied; a pretty-printed tuple spanning several lines is one
// value; and the top-level cache counters of /v1/stats are the per-shard
// sums, all zero without the opt-in memo.
func TestIngestItemShapes(t *testing.T) {
	d := startDaemon(t, daemonArgs("-shards", "2")...)

	code, reply := postTuples(t, d, `{
  "id": "a",
  "attrs": [
    [{"v": "Johnson"}],
    [{"v": "pilot"}]
  ]
}
{"id":"b","attrs":[[{"v":"Johnsen"}],[{"v":"pilot"}]]}`)
	if code != http.StatusOK || reply.Accepted != 2 {
		t.Fatalf("pretty-printed tuple: %d %+v", code, reply)
	}

	code, reply = postTuples(t, d, `{"remove":"a"}`+"\n"+`{"remove":5}`)
	if code != http.StatusBadRequest || reply.Removed != 1 || reply.Item == nil || *reply.Item != 1 ||
		!strings.Contains(reply.Error, "remove") || strings.Contains(reply.Error, "tuple") {
		t.Fatalf("non-string remove: %d %+v", code, reply)
	}

	code, reply = postTuples(t, d, `{"id":"c","attrs":[[{"v":"Johnsons"}],[{"v":"pilot"}]]}`+"\n"+
		`{"remove":"b","id":"e","alts":[{"p":1,"values":[[{"v":"X"}],[{"v":"y"}]]}]}`)
	if code != http.StatusBadRequest || reply.Accepted != 1 || reply.Removed != 0 ||
		reply.Item == nil || *reply.Item != 1 || !strings.Contains(reply.Error, "mixed") {
		t.Fatalf("removal mixed with a tuple: %d %+v", code, reply)
	}

	st := statsWithResidents(t, d, 2)
	if st.Detector.Residents != 2 {
		t.Fatalf("residents = %d, want 2 (b and c: neither refused item was half applied)", st.Detector.Residents)
	}
	// No daemon flag turns the similarity memo on, so every shard's memo
	// counters read 0, and the top-level ones are still their sums.
	var misses, capacity uint64
	for _, ss := range st.PerShard {
		misses += ss.Detector.Cache.Misses
		capacity += uint64(ss.Detector.Cache.Capacity)
	}
	if c := st.Detector.Cache; capacity != 0 || misses != 0 || uint64(c.Capacity) != capacity || c.Misses != misses {
		t.Fatalf("top-level cache counters %+v, per-shard sums capacity %d, misses %d: want all zero", c, capacity, misses)
	}
	if rc := d.stop(); rc != 0 {
		t.Fatalf("daemon exited %d: %s", rc, d.errOut.String())
	}
}

// TestIngestBodyLimit: a body that outgrows maxIngestBody is answered
// 413 at the item the limit cuts, the items before it stay applied, and
// the daemon keeps serving.
func TestIngestBodyLimit(t *testing.T) {
	d := startDaemon(t, daemonArgs("-shards", "2")...)
	head := `{"id":"a","attrs":[[{"v":"Johnson"}],[{"v":"pilot"}]]}` + "\n" +
		`{"id":"b","attrs":[[{"v":"Johnsen"}],[{"v":"pilot"}]]}` + "\n" +
		`{"id":"c","attrs":[[{"v":"`
	body := io.MultiReader(strings.NewReader(head), strings.NewReader(strings.Repeat("x", maxIngestBody)),
		strings.NewReader(`"}],[{"v":"pilot"}]]}`))
	resp, err := http.Post(d.url("/v1/tuples"), "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	var reply ingestReply
	err = json.NewDecoder(resp.Body).Decode(&reply)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || reply.Accepted != 2 || reply.Item == nil || *reply.Item != 2 {
		t.Fatalf("oversized body: %d %+v", resp.StatusCode, reply)
	}

	if code, reply := postTuples(t, d, `{"id":"e","attrs":[[{"v":"Johnsan"}],[{"v":"pilot"}]]}`); code != http.StatusOK || reply.Accepted != 1 {
		t.Fatalf("post after the 413: %d %+v", code, reply)
	}
	if st := statsWithResidents(t, d, 3); st.Detector.Residents != 3 {
		t.Fatalf("residents = %d, want 3 (a, b and e)", st.Detector.Residents)
	}
	if rc := d.stop(); rc != 0 {
		t.Fatalf("daemon exited %d: %s", rc, d.errOut.String())
	}
}

// TestHTTPServerLimits pins the server's fixed timeouts: headers are
// bounded, writes are not (event streams must live).
func TestHTTPServerLimits(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
	if hs.WriteTimeout != 0 || hs.ReadTimeout != 0 {
		t.Fatalf("WriteTimeout %v, ReadTimeout %v: both would cut event streams and long bodies", hs.WriteTimeout, hs.ReadTimeout)
	}
}

// TestIntegrateEntities runs the daemon in entity-resolution mode: the
// /v1/entities stream reports created/merged events and /v1/deltas is
// gone (the integrator consumes match deltas).
func TestIntegrateEntities(t *testing.T) {
	d := startDaemon(t, daemonArgs("-shards", "2", "-integrate")...)
	if resp, err := http.Get(d.url("/v1/deltas")); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/deltas with -integrate: %d", resp.StatusCode)
	}
	events := collectSSE(t, d.url("/v1/entities"))

	for _, line := range []string{
		`{"id":"a","attrs":[[{"v":"Johnson"}],[{"v":"pilot"}]]}`,
		`{"id":"b","attrs":[[{"v":"Johnsen"}],[{"v":"pilot"}]]}`,
		`{"id":"x","attrs":[[{"v":"Smith"}],[{"v":"nurse"}]]}`,
	} {
		if code, reply := postTuples(t, d, line); code != http.StatusOK {
			t.Fatalf("post %s: %d %+v", line, code, reply)
		}
	}
	if rc := d.stop(); rc != 0 {
		t.Fatalf("daemon exited %d: %s", rc, d.errOut.String())
	}

	kinds := map[string]int{}
	members := map[string]bool{}
	for ev := range events {
		if ev.name != "entity" {
			continue
		}
		var e sseEntity
		if err := json.Unmarshal([]byte(ev.data), &e); err != nil {
			t.Fatal(err)
		}
		kinds[e.Event]++
		members[strings.Join(e.Members, "+")] = true
	}
	if kinds["created"] == 0 {
		t.Fatalf("no created entity events; saw %v", kinds)
	}
	if !members["a+b"] {
		t.Fatalf("never saw the merged a+b entity; members seen: %v", members)
	}
}

// TestDurableRestart cycles a -state daemon through SIGTERM: the
// second instance recovers the residents (duplicate IDs are refused)
// and keeps serving.
func TestDurableRestart(t *testing.T) {
	dir := t.TempDir()
	d := startDaemon(t, daemonArgs("-shards", "2", "-state", dir)...)
	if code, reply := postTuples(t, d,
		`{"id":"a","attrs":[[{"v":"Johnson"}],[{"v":"pilot"}]]}`+"\n"+
			`{"id":"b","attrs":[[{"v":"Johnsen"}],[{"v":"pilot"}]]}`+"\n"); code != http.StatusOK || reply.Accepted != 2 {
		t.Fatalf("seed post: %d %+v", code, reply)
	}
	if rc := d.stop(); rc != 0 {
		t.Fatalf("first daemon exited %d: %s", rc, d.errOut.String())
	}

	d = startDaemon(t, daemonArgs("-shards", "2", "-state", dir)...)
	if code, reply := postTuples(t, d, `{"id":"a","attrs":[[{"v":"X"}],[{"v":"y"}]]}`); code != http.StatusBadRequest {
		t.Fatalf("recovered daemon accepted a duplicate ID: %d %+v", code, reply)
	}
	code, reply := postTuples(t, d, `{"remove":"b"}`+"\n"+`{"id":"c","attrs":[[{"v":"Johnsons"}],[{"v":"clerk"}]]}`)
	if code != http.StatusOK || reply.Removed != 1 || reply.Accepted != 1 {
		t.Fatalf("post after recovery: %d %+v", code, reply)
	}
	if st := statsWithResidents(t, d, 2); st.Detector.Residents != 2 {
		t.Fatalf("residents after recovery = %d, want 2 (a and c)", st.Detector.Residents)
	}
	// Restarting with a different shard count must be refused: the
	// routing would no longer match the persisted partitioning.
	var out, errOut bytes.Buffer
	d.stop()
	if rc := run([]string{"-addr", "127.0.0.1:0", "-schema", "name,job", "-key", "name:3", "-shards", "3", "-state", dir}, &out, &errOut, nil); rc != 1 {
		t.Fatalf("shard-count mismatch not refused: rc=%d stderr=%s", rc, errOut.String())
	} else if !strings.Contains(errOut.String(), "shards") {
		t.Fatalf("mismatch error not surfaced: %s", errOut.String())
	}
}

// TestStartupValidation covers the flag and shardability gates.
func TestStartupValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		rc   int
		want string
	}{
		{"missing schema", []string{"-key", "name:3"}, 2, "-schema is required"},
		{"missing key", []string{"-schema", "name,job"}, 2, "-key is required"},
		{"positional args", append(daemonArgs(), "stray.pdb"), 2, "unexpected arguments"},
		{"not shardable", daemonArgs("-reduce", "snm-certain"), 1, "not shardable"},
		{"unknown reduce", daemonArgs("-reduce", "what"), 1, "unknown reduction"},
		{"unknown compare", daemonArgs("-compare", "what"), 1, "unknown comparison"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			rc := run(tc.args, &out, &errOut, nil)
			if rc != tc.rc {
				t.Fatalf("rc = %d, want %d (stderr: %s)", rc, tc.rc, errOut.String())
			}
			if !strings.Contains(errOut.String(), tc.want) {
				t.Fatalf("stderr %q missing %q", errOut.String(), tc.want)
			}
		})
	}
}

// TestStartupRejectsBadShapeValues: a shape flag out of its domain, or
// -qgram without -prefilter, exits 2 before listening. Each was run
// silently as something else — one shard, the default queue, q = 2, one
// worker, no gram size at all — so a daemon that comes up anyway fails
// the case and is stopped.
func TestStartupRejectsBadShapeValues(t *testing.T) {
	for _, tc := range []struct {
		name, flag, value string
		noPreFilter       bool
	}{
		{"zero shards", "-shards", "0", false},
		{"negative shards", "-shards", "-3", false},
		{"zero queue", "-queue", "0", false},
		{"negative queue", "-queue", "-5", false},
		{"negative qgram", "-qgram", "-1", false},
		{"negative workers", "-workers", "-9", false},
		{"qgram without prefilter", "-qgram", "5", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			extra := []string{"-prefilter", tc.flag, tc.value}
			if tc.noPreFilter {
				extra = extra[1:]
			}
			args := append([]string{"-addr", "127.0.0.1:0"}, daemonArgs(extra...)...)
			var out, errOut bytes.Buffer
			ready := make(chan string, 1)
			rc := make(chan int, 1)
			go func() { rc <- run(args, &out, &errOut, ready) }()
			select {
			case code := <-rc:
				if code != 2 || !strings.Contains(errOut.String(), tc.flag) {
					t.Fatalf("exit %d, want 2 naming %s (stderr: %s)", code, tc.flag, errOut.String())
				}
			case <-ready:
				if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
					t.Fatal(err)
				}
				<-rc
				t.Fatalf("%s %s accepted: %s", tc.flag, tc.value, out.String())
			}
		})
	}
}

// TestStatusFor pins the admission-error → HTTP mapping, including the
// one deterministic 429 contract (the live overload path is exercised
// under the shard package's hold seam).
func TestStatusFor(t *testing.T) {
	cases := []struct {
		err   error
		code  int
		retry bool
	}{
		{&shard.OverloadedError{Shard: 1, Queued: 9}, http.StatusTooManyRequests, true},
		{fmt.Errorf("wrap: %w", &shard.OverloadedError{}), http.StatusTooManyRequests, true},
		{shard.ErrClosed, http.StatusServiceUnavailable, false},
		{fmt.Errorf("shard 2: %w: %w", shard.ErrShardFailed, errors.New("disk full")), http.StatusInternalServerError, false},
		{fmt.Errorf("shard: Remove: %w %q", probdedup.ErrUnknownID, "x"), http.StatusNotFound, false},
		{fmt.Errorf("json: %w", &http.MaxBytesError{Limit: maxIngestBody}), http.StatusRequestEntityTooLarge, false},
		{fmt.Errorf("arity"), http.StatusBadRequest, false},
	}
	for _, tc := range cases {
		code, retry := statusFor(tc.err)
		if code != tc.code || retry != tc.retry {
			t.Errorf("statusFor(%v) = (%d,%v), want (%d,%v)", tc.err, code, retry, tc.code, tc.retry)
		}
	}
}
