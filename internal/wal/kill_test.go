package wal

import (
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"syscall"
	"testing"

	"probdedup/internal/core"
)

const killOps = 16

// killEnv carries one kill scenario to the subprocess.
type killEnv struct {
	engine  string
	red     string
	seed    int64
	crashAt int
}

func killOptions(tb testing.TB, env killEnv, schema []string) core.Options {
	tb.Helper()
	opts := testOptions(crashReductions(tb, schema)[env.red])
	// FsyncEvery=1 makes every acknowledged op durable, so the survivor
	// set after SIGKILL is exactly the acknowledged prefix.
	opts.Durability = core.Durability{FsyncEvery: 1}
	return opts
}

// killFloor lowers the checkpoint floor in both the child and the
// recovering parent, so automatic checkpoints fire every few ops and
// kills land both before and after them.
const killFloor = 512

// TestDurableCrashChild is the subprocess half of the kill test: it
// opens a durable engine in the directory named by WAL_CRASH_DIR,
// applies the schedule prefix, then dies by SIGKILL mid-flight —
// no deferred closes, no checkpoint, no flushing.
func TestDurableCrashChild(t *testing.T) {
	dir := os.Getenv("WAL_CRASH_DIR")
	if dir == "" {
		t.Skip("subprocess helper; driven by TestKillAtRandomOp")
	}
	setCheckpointFloor(t, killFloor)
	seed, err := strconv.ParseInt(os.Getenv("WAL_CRASH_SEED"), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	crashAt, err := strconv.Atoi(os.Getenv("WAL_CRASH_AT"))
	if err != nil {
		t.Fatal(err)
	}
	env := killEnv{
		engine:  os.Getenv("WAL_CRASH_ENGINE"),
		red:     os.Getenv("WAL_CRASH_RED"),
		seed:    seed,
		crashAt: crashAt,
	}
	schema, ops := genSchedule(t, env.seed, killOps)
	h := mustOpenHandle(t, env.engine, dir, schema, killOptions(t, env, schema))
	for i, op := range ops[:env.crashAt] {
		if err := applyOp(h.ops, op); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	syscall.Kill(os.Getpid(), syscall.SIGKILL)
	t.Fatal("unreachable: SIGKILL did not fire")
}

// TestKillAtRandomOp re-executes the test binary as a child that
// SIGKILLs itself after a seed-chosen number of acknowledged
// operations, then recovers the state directory in-process and
// requires bit-identity with a never-crashed engine fed the same
// acknowledged prefix — and with the never-crashed full run after the
// remaining schedule is folded in. The reduction tier cycles with the
// seed so all three (including the epoch tier) die at least once.
func TestKillAtRandomOp(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	setCheckpointFloor(t, killFloor)
	redNames := make([]string, 0, 3)
	{
		schema, _ := genSchedule(t, 0, 4)
		for name := range crashReductions(t, schema) {
			redNames = append(redNames, name)
		}
		sort.Strings(redNames)
	}
	for _, engine := range []string{"detector", "integrator"} {
		for seed := int64(0); seed < 5; seed++ {
			env := killEnv{
				engine: engine,
				red:    redNames[int(seed)%len(redNames)],
				seed:   seed,
				// Deterministic pseudo-random kill point in [1, killOps],
				// spread so different seeds die in different checkpoint
				// phases.
				crashAt: 1 + int((seed*7+3)%killOps),
			}
			t.Run(fmt.Sprintf("%s/%s/seed%d/op%d", engine, env.red, seed, env.crashAt), func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				cmd := exec.Command(os.Args[0], "-test.run", "^TestDurableCrashChild$", "-test.v")
				cmd.Env = append(os.Environ(),
					"WAL_CRASH_DIR="+dir,
					"WAL_CRASH_ENGINE="+env.engine,
					"WAL_CRASH_RED="+env.red,
					fmt.Sprintf("WAL_CRASH_SEED=%d", env.seed),
					fmt.Sprintf("WAL_CRASH_AT=%d", env.crashAt),
				)
				out, err := cmd.CombinedOutput()
				if err == nil {
					t.Fatalf("child survived SIGKILL?\n%s", out)
				}
				ee, ok := err.(*exec.ExitError)
				if ok && ee.Exited() {
					// A normal (non-signal) exit means the child failed
					// before reaching the kill — surface its output.
					t.Fatalf("child failed before SIGKILL: %v\n%s", err, out)
				}

				schema, ops := genSchedule(t, env.seed, killOps)
				opts := killOptions(t, env, schema)
				h := mustOpenHandle(t, env.engine, dir, schema, opts)
				defer h.d.Abort()
				want := cleanFingerprint(t, env.engine, schema, opts, ops[:env.crashAt])
				if got := h.fp(t); got != want {
					t.Fatalf("recovered state diverges from never-crashed prefix of %d ops\n--- recovered ---\n%s--- want ---\n%s",
						env.crashAt, got, want)
				}
				for i, op := range ops[env.crashAt:] {
					if err := applyOp(h.ops, op); err != nil {
						t.Fatalf("continuation op %d: %v", env.crashAt+i, err)
					}
				}
				wantFinal := cleanFingerprint(t, env.engine, schema, opts, ops)
				if got := h.fp(t); got != wantFinal {
					t.Fatalf("continued run diverges from never-crashed full run\n--- recovered ---\n%s--- want ---\n%s",
						got, wantFinal)
				}
			})
		}
	}
}
