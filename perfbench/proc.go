package main

// Child-process hygiene. The daemon under test is only ever this
// process's child: it runs in its own process group with
// Pdeathsig=SIGKILL (so it dies with the harness even if the harness is
// SIGKILLed), and every exit path — success, error, panic, SIGINT or
// SIGTERM to the harness — stops it with SIGTERM, a bounded wait, then
// SIGKILL of the whole group, and reaps it.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Pdeathsig fires when the thread that forked the child exits, not the
// process. Locking main's goroutine to the main thread, which lives as
// long as the process, and spawning only from it makes the signal mean
// "the harness died".
func init() { runtime.LockOSThread() }

// stopGrace bounds how long a SIGTERMed daemon may drain and
// checkpoint before its group is SIGKILLed.
const stopGrace = 15 * time.Second

// daemon is one running sqlcheckd child.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	args    []string
	exited  chan struct{}
	waitErr error

	logMu sync.Mutex
	log   []string // last lines of the daemon's stderr

	stopOnce sync.Once
	stopErr  error
}

// live tracks every started daemon so the exit paths can stop them.
var live struct {
	sync.Mutex
	set map[*daemon]bool
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startDaemon spawns bin with args plus a kernel-chosen loopback port
// and waits until /healthz answers.
func startDaemon(ctx context.Context, bin string, args []string, env []string) (*daemon, error) {
	d := &daemon{args: args, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	d.cmd.Env = append(os.Environ(), env...)
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	live.Lock()
	if live.set == nil {
		live.set = map[*daemon]bool{}
	}
	err = d.cmd.Start()
	if err == nil {
		live.set[d] = true
	}
	live.Unlock()
	if err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	addr := make(chan string, 1)
	go d.readLog(stderr, addr)
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()

	timeout := time.NewTimer(60 * time.Second)
	defer timeout.Stop()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.exited:
		return nil, fmt.Errorf("sqlcheckd exited during start: %v\n%s", d.waitErr, d.tail())
	case <-timeout.C:
		d.stop()
		return nil, fmt.Errorf("sqlcheckd did not announce its address\n%s", d.tail())
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	health := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := health.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("sqlcheckd exited before healthy: %v\n%s", d.waitErr, d.tail())
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// readLog keeps the last lines of the daemon's stderr (so the pipe
// never fills and blocks the daemon) and reports the listen address.
func (d *daemon) readLog(r io.Reader, addr chan<- string) {
	sc := bufio.NewScanner(r)
	announced := false
	for sc.Scan() {
		line := sc.Text()
		if !announced {
			if m := listenRE.FindStringSubmatch(line); m != nil {
				addr <- m[1]
				announced = true
			}
		}
		d.logMu.Lock()
		d.log = append(d.log, line)
		if len(d.log) > 50 {
			d.log = d.log[len(d.log)-50:]
		}
		d.logMu.Unlock()
	}
}

func (d *daemon) tail() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return strings.Join(d.log, "\n")
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop sends SIGTERM, waits up to stopGrace for a drained exit, then
// SIGKILLs the process group, and returns once the child is reaped.
// It reports an error when the daemon needed SIGKILL or exited nonzero.
func (d *daemon) stop() error {
	d.stopOnce.Do(func() {
		pid := d.pid()
		_ = syscall.Kill(pid, syscall.SIGTERM) // ESRCH: already gone, Wait reaps it
		timer := time.NewTimer(stopGrace)
		select {
		case <-d.exited:
			timer.Stop()
			if d.waitErr != nil {
				d.stopErr = fmt.Errorf("sqlcheckd exit: %v\n%s", d.waitErr, d.tail())
			}
		case <-timer.C:
			d.stopErr = errors.New("sqlcheckd ignored SIGTERM; killed")
		}
		// The group may hold stragglers even after a clean exit.
		_ = syscall.Kill(-pid, syscall.SIGKILL)
		<-d.exited
		live.Lock()
		delete(live.set, d)
		live.Unlock()
	})
	return d.stopErr
}

// stopAll stops every live daemon; the exit paths call it.
func stopAll() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.set))
	for d := range live.set {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// vmHWM returns a process's peak resident set size in MiB.
func vmHWM(pid string) (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// runDirPrefix names per-run scratch directories under the work dir;
// the suffix is the owning harness's pid.
const runDirPrefix = "run-"

// newRunDir creates this run's scratch directory and removes those of
// earlier runs whose harness is gone (a SIGKILLed harness cannot clean
// up after itself).
func newRunDir(work string) (string, error) {
	entries, _ := os.ReadDir(work)
	for _, e := range entries {
		pid, ok := strings.CutPrefix(e.Name(), runDirPrefix)
		if !ok || !e.IsDir() {
			continue
		}
		if _, err := os.Stat(filepath.Join("/proc", pid)); errors.Is(err, os.ErrNotExist) {
			os.RemoveAll(filepath.Join(work, e.Name()))
		}
	}
	dir := filepath.Join(work, runDirPrefix+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}
