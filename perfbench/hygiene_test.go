package main

// Process hygiene: whatever way the harness ends — a finished run, an
// error, a panic, SIGINT, SIGTERM, or SIGKILL of the harness itself —
// no process it started may outlive it, and its scratch directory is
// gone. These tests build sqlcheckd and the harness into a temporary
// directory and look for survivors by executable path in /proc.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildBinaries builds sqlcheckd and the harness once per test binary.
func buildBinaries(t *testing.T) (daemon, harness string) {
	t.Helper()
	if _, err := os.Stat("/proc/self/exe"); err != nil {
		t.Skip("needs /proc")
	}
	dir := t.TempDir()
	daemon, harness = filepath.Join(dir, "sqlcheckd"), filepath.Join(dir, "perfbench")
	for _, b := range [][]string{
		{"build", "-C", "..", "-o", daemon, "./cmd/sqlcheckd"},
		{"build", "-o", harness, "."},
	} {
		if out, err := exec.Command("go", b...).CombinedOutput(); err != nil {
			t.Fatalf("go %v: %v\n%s", b, err, out)
		}
	}
	return daemon, harness
}

// processesRunning lists the pids whose executable is one of paths.
func processesRunning(paths ...string) []string {
	var out []string
	entries, _ := os.ReadDir("/proc")
	for _, e := range entries {
		exe, err := os.Readlink(filepath.Join("/proc", e.Name(), "exe"))
		if err != nil {
			continue
		}
		exe = strings.TrimSuffix(exe, " (deleted)")
		for _, p := range paths {
			if exe == p {
				out = append(out, e.Name())
			}
		}
	}
	return out
}

// assertNoProcess fails, and kills the survivors, if a process runs
// one of bins.
func assertNoProcess(t *testing.T, bins ...string) {
	t.Helper()
	// A SIGKILLed child is gone once reaped; give the kernel a moment.
	deadline := time.Now().Add(5 * time.Second)
	for len(processesRunning(bins...)) > 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if left := processesRunning(bins...); len(left) > 0 {
		t.Errorf("processes still running after the harness exited: %v", left)
		for _, pid := range left {
			if n, err := strconv.Atoi(pid); err == nil {
				syscall.Kill(n, syscall.SIGKILL)
			}
		}
	}
}

// assertClean fails if a daemon or harness process survives, or a run
// directory was left in work.
func assertClean(t *testing.T, work string, bins ...string) {
	t.Helper()
	assertNoProcess(t, bins...)
	entries, _ := os.ReadDir(work)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), runDirPrefix) {
			t.Errorf("run directory %s left behind", e.Name())
		}
	}
}

// waitForDaemon waits until a process runs bin.
func waitForDaemon(t *testing.T, bin string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for len(processesRunning(bin)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("daemon never started")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func harnessCmd(harness, daemon, work string, extra ...string) *exec.Cmd {
	args := append([]string{"-workload", "serve-mix", "-seed", "1", "-seconds", "24", "-trace", "0",
		"-daemon", daemon, "-work", work}, extra...)
	return exec.Command(harness, args...)
}

func TestNoProcessSurvives(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and runs the benchmark")
	}
	daemon, harness := buildBinaries(t)

	t.Run("finished run", func(t *testing.T) {
		work := t.TempDir()
		var stdout bytes.Buffer
		cmd := harnessCmd(harness, daemon, work)
		cmd.Stdout = &stdout
		if err := cmd.Run(); err != nil {
			t.Fatalf("run failed: %v\n%s", err, stdout.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		if !strings.HasPrefix(lines[len(lines)-1], `{"correct":true`) {
			t.Errorf("last line is not a correct result: %s", lines[len(lines)-1])
		}
		assertClean(t, work, daemon, harness)
	})

	for _, fault := range []string{"error", "panic"} {
		t.Run(fault, func(t *testing.T) {
			work := t.TempDir()
			var stdout bytes.Buffer
			cmd := harnessCmd(harness, daemon, work, "-fault", fault)
			cmd.Stdout = &stdout
			if err := cmd.Run(); err == nil {
				t.Errorf("an injected %s exited 0", fault)
			}
			if stdout.Len() != 0 {
				t.Errorf("a failed run printed a result: %s", stdout.String())
			}
			assertClean(t, work, daemon, harness)
		})
	}

	for _, sig := range []syscall.Signal{syscall.SIGINT, syscall.SIGTERM, syscall.SIGKILL} {
		t.Run(sig.String(), func(t *testing.T) {
			work := t.TempDir()
			cmd := harnessCmd(harness, daemon, work)
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			waitForDaemon(t, daemon)
			time.Sleep(500 * time.Millisecond) // into set-up or the window
			if err := cmd.Process.Signal(sig); err != nil {
				t.Fatal(err)
			}
			if err := cmd.Wait(); err == nil {
				t.Errorf("harness exited 0 after %v", sig)
			}
			if sig == syscall.SIGKILL {
				// No clean-up ran: Pdeathsig killed the daemon, and the
				// next run removes the dead harness's directory.
				assertNoProcess(t, daemon, harness)
				if _, err := newRunDir(work); err != nil {
					t.Fatal(err)
				}
				entries, _ := os.ReadDir(work)
				if len(entries) != 1 {
					t.Errorf("stale run directories not removed: %v", entries)
				}
				return
			}
			assertClean(t, work, daemon, harness)
		})
	}
}
