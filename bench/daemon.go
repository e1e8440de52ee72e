package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"probdedup/internal/shard"
)

// now is the harness's only wall-clock read; every stopwatch goes
// through it.
func now() time.Time {
	return time.Now() //pdlint:allow nowallclock -- benchmark stopwatch; measures the harness, not engine state
}

// children tracks every live pdedupd so a signal or an early exit can
// kill them all; temp dirs are removed the same way.
var children struct {
	sync.Mutex
	procs map[*daemon]bool
	dirs  map[string]bool
}

func trackDir(dir string) {
	children.Lock()
	if children.dirs == nil {
		children.dirs = map[string]bool{}
	}
	children.dirs[dir] = true
	children.Unlock()
}

func removeDir(dir string) {
	os.RemoveAll(dir)
	children.Lock()
	delete(children.dirs, dir)
	children.Unlock()
}

// cleanupAll kills every tracked child, waits for it, and removes every
// tracked temp dir. Safe to call more than once.
func cleanupAll() {
	children.Lock()
	procs := make([]*daemon, 0, len(children.procs))
	for d := range children.procs {
		procs = append(procs, d)
	}
	dirs := make([]string, 0, len(children.dirs))
	for dir := range children.dirs {
		dirs = append(dirs, dir)
	}
	children.Unlock()
	for _, d := range procs {
		d.kill()
	}
	for _, dir := range dirs {
		removeDir(dir)
	}
}

// buildDaemon compiles cmd/pdedupd from the tree at root into dir, once
// per invocation; the go tool skips the link when dir already holds an
// up-to-date binary.
func buildDaemon(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "pdedupd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/pdedupd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/pdedupd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one pdedupd child process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	started time.Time
	listen  time.Time
	exited  chan struct{} // closed once Wait returned
	waitErr error

	mu     sync.Mutex
	stderr bytes.Buffer
}

// startDaemon execs pdedupd and waits for its "listening" line. The
// child runs with GOMAXPROCS pinned and dies with the harness
// (Pdeathsig) even when the harness is killed outright.
func startDaemon(ctx context.Context, bin string, args []string) (*daemon, error) {
	d := &daemon{exited: make(chan struct{})}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", daemonProcs))
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d.started = now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start pdedupd: %w", err)
	}
	children.Lock()
	if children.procs == nil {
		children.procs = map[*daemon]bool{}
	}
	children.procs[d] = true
	children.Unlock()

	addrc := make(chan string, 1)
	var pipes sync.WaitGroup
	pipes.Add(2)
	go func() {
		defer pipes.Done()
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "pdedupd: listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrc <- addr:
				default:
				}
			}
		}
	}()
	go func() {
		defer pipes.Done()
		buf := make([]byte, 4096)
		for {
			n, err := stderr.Read(buf)
			d.mu.Lock()
			d.stderr.Write(buf[:n])
			d.mu.Unlock()
			if err != nil {
				return
			}
		}
	}()
	go func() {
		pipes.Wait()
		d.waitErr = d.cmd.Wait()
		children.Lock()
		delete(children.procs, d)
		children.Unlock()
		close(d.exited)
	}()

	select {
	case d.addr = <-addrc:
		d.listen = now()
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("pdedupd exited before listening: %v\n%s", d.waitErr, d.stderrText())
	case <-ctx.Done():
		d.kill()
		return nil, fmt.Errorf("pdedupd did not start listening: %w", ctx.Err())
	}
}

func (d *daemon) stderrText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stderr.String()
}

// kill SIGKILLs the child and waits until it is gone.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// terminate SIGTERMs the child and returns how long the graceful drain
// took; a child that outlives ctx is killed.
func (d *daemon) terminate(ctx context.Context) (time.Duration, error) {
	t0 := now()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
		if d.waitErr != nil {
			return now().Sub(t0), fmt.Errorf("pdedupd after SIGTERM: %v\n%s", d.waitErr, d.stderrText())
		}
		return now().Sub(t0), nil
	case <-ctx.Done():
		d.kill()
		return now().Sub(t0), fmt.Errorf("pdedupd did not drain: %w", ctx.Err())
	}
}

// cpuMS reads the child's user+system CPU in milliseconds from
// /proc/PID/stat (clock ticks of 10 ms); rusage only exists after exit,
// and the closed-loop phase needs a reading before and after.
func (d *daemon) cpuMS() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// the 14th and 15th of the whole line.
	i := bytes.LastIndexByte(data, ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat: %q", data)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat: %q", data)
	}
	return (utime + stime) * 10, nil
}

// rssBytes reads the child's resident set size.
func (d *daemon) rssBytes() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024, err
		}
	}
	return 0, errors.New("no VmRSS in /proc status")
}

// ingestReply mirrors pdedupd's /v1/tuples reply.
type ingestReply struct {
	Accepted int    `json:"accepted"`
	Removed  int    `json:"removed"`
	Item     *int   `json:"item"`
	Error    string `json:"error"`
}

// client talks to one daemon: one keep-alive connection per sender,
// one more for stats and barriers.
type client struct {
	base string
	conn [senders + 1]*http.Client
}

func newClient(addr string) *client {
	c := &client{base: "http://" + addr}
	for i := range c.conn {
		c.conn[i] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	}
	return c
}

func (c *client) close() {
	for _, hc := range c.conn {
		hc.CloseIdleConnections()
	}
}

// post sends one NDJSON body over connection conn.
func (c *client) post(ctx context.Context, conn int, data []byte) (ingestReply, int, error) {
	var reply ingestReply
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/tuples", bytes.NewReader(data))
	if err != nil {
		return reply, 0, err
	}
	resp, err := c.conn[conn].Do(req)
	if err != nil {
		return reply, 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return reply, resp.StatusCode, fmt.Errorf("POST /v1/tuples: status %d, undecodable reply: %w", resp.StatusCode, err)
	}
	io.Copy(io.Discard, resp.Body)
	return reply, resp.StatusCode, nil
}

// sendCounts is what delivering bodies cost.
type sendCounts struct {
	posts, rejects int       // POSTs sent, of which answered 429
	failed         int       // items that were never admitted
	rtts           []float64 // open loop: round trip of each POST, ms
}

// sendRetry posts b until every item is admitted: a 429 resumes from
// the reported item after the fixed pause (a retry, not a failure).
func (c *client) sendRetry(ctx context.Context, conn int, b body, sc *sendCounts) error {
	from := 0
	for from < len(b.offs) {
		reply, code, err := c.post(ctx, conn, b.data[b.offs[from]:])
		sc.posts++
		switch {
		case err != nil:
			sc.failed += len(b.offs) - from
			return err
		case code == http.StatusOK:
			return nil
		case code == http.StatusTooManyRequests && reply.Item != nil:
			sc.rejects++
			from += *reply.Item
			select {
			case <-time.After(retryPauseMS * time.Millisecond):
			case <-ctx.Done():
				sc.failed += len(b.offs) - from
				return ctx.Err()
			}
		default:
			sc.failed += len(b.offs) - from
			return fmt.Errorf("POST /v1/tuples: status %d at item %v: %s", code, reply.Item, reply.Error)
		}
	}
	return nil
}

// sendOnce posts b exactly once: in the open loop a refusal is a
// failure of every item not admitted.
func (c *client) sendOnce(ctx context.Context, conn int, b body, sc *sendCounts) error {
	t0 := now()
	reply, code, err := c.post(ctx, conn, b.data)
	sc.posts++
	sc.rtts = append(sc.rtts, float64(now().Sub(t0))/float64(time.Millisecond))
	if err == nil && code == http.StatusOK {
		return nil
	}
	admitted := reply.Accepted + reply.Removed
	sc.failed += len(b.offs) - admitted
	if code == http.StatusTooManyRequests {
		sc.rejects++
		return nil
	}
	if err == nil {
		err = fmt.Errorf("POST /v1/tuples: status %d: %s", code, reply.Error)
	}
	return err
}

// stats fetches /v1/stats.
func (c *client) stats(ctx context.Context) (shard.Stats, error) {
	var st shard.Stats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := c.conn[senders].Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// event is one server-sent event as read: its payload and when the
// subscriber read it.
type event struct {
	at   time.Time
	data []byte
}

// subscriber reads one SSE stream into memory. Events are only
// timestamped and copied while the daemon is being measured; parsing
// happens after the phase.
type subscriber struct {
	resp *http.Response
	done chan struct{}

	mu     sync.Mutex
	events []event
	ended  bool  // the daemon sent "end": drained, or we were dropped
	err    error // read error other than the stream closing
	wake   chan struct{}
}

// subscribe opens path ("/v1/deltas" or "/v1/entities") and starts
// reading.
func subscribe(ctx context.Context, addr, path string) (*subscriber, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+path, nil)
	if err != nil {
		return nil, err
	}
	hc := &http.Client{Transport: &http.Transport{}}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	s := &subscriber{resp: resp, done: make(chan struct{}), wake: make(chan struct{}, 1)}
	go s.read()
	return s, nil
}

func (s *subscriber) read() {
	defer close(s.done)
	r := bufio.NewReaderSize(s.resp.Body, 1<<20)
	name := ""
	for {
		line, err := r.ReadSlice('\n')
		if err != nil {
			s.mu.Lock()
			if !s.ended && !errors.Is(err, io.EOF) && !errors.Is(err, context.Canceled) {
				s.err = err
			}
			s.ended = true
			s.mu.Unlock()
			s.signal()
			return
		}
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			name = string(bytes.TrimSpace(line[len("event: "):]))
		case bytes.HasPrefix(line, []byte("data: ")):
			if name == "end" {
				s.mu.Lock()
				s.ended = true
				s.mu.Unlock()
				s.signal()
				continue
			}
			ev := event{at: now(), data: append([]byte(nil), bytes.TrimSpace(line[len("data: "):])...)}
			s.mu.Lock()
			s.events = append(s.events, ev)
			s.mu.Unlock()
			s.signal()
		}
	}
}

func (s *subscriber) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// close stops reading and waits for the reader to finish.
func (s *subscriber) close() {
	s.resp.Body.Close()
	<-s.done
}

// snapshot returns the events read so far (the slice is shared and
// append-only: callers must not modify it) and whether the stream has
// ended.
func (s *subscriber) snapshot() ([]event, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events, s.ended, s.err
}

// errStreamEnded reports an SSE "end" (or a broken stream) before the
// run was over: the subscriber was dropped or the daemon went away, so
// the sample is not just short, the run failed.
var errStreamEnded = errors.New("event stream ended before the phase was over")

// await blocks until an event at index >= from contains every needle,
// one event per needle, and returns the time the last of them was
// read.
func (s *subscriber) await(ctx context.Context, from int, needles [][]byte) (time.Time, error) {
	found := make([]bool, len(needles))
	missing := len(needles)
	var last time.Time
	for {
		events, ended, err := s.snapshot()
		for ; from < len(events); from++ {
			for i, n := range needles {
				if !found[i] && bytes.Contains(events[from].data, n) {
					found[i] = true
					missing--
					last = events[from].at
				}
			}
		}
		if missing == 0 {
			return last, nil
		}
		if err != nil {
			return last, fmt.Errorf("%w: %v", errStreamEnded, err)
		}
		if ended {
			return last, errStreamEnded
		}
		select {
		case <-s.wake:
		case <-ctx.Done():
			return last, ctx.Err()
		}
	}
}
