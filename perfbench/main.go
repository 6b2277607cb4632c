// Command perfbench is the repository benchmark: it drives one named
// workload against code built from this checkout, checks that every
// output is correct, and prints each metric by name with its unit. The
// last line of standard output is the machine-readable result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones a user sees; with
// -trace 1 the run measures the same window untraced, then again with
// client spans, and prints the per-layer metrics instead. run.sh builds
// the harness and sqlcheckd and then runs this command; see README.md
// for the workloads and what each metric should move.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the checker sees that carry a
// regression bound in BENCHMARK.json. Every workload reports all of
// them; README.md says what each means per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"check_p50_ms", "ms"},
	{"precision", "ratio"},
	{"recall", "ratio"},
	{"peak_rss_mib", "MiB"},
	{"ok_ratio", "ratio"},
}

// unbounded are end-to-end metrics printed where a workload measures
// them but not in BENCHMARK.json, so they carry no bound. The p99s and
// the closed-loop throughputs: on a small shared machine their
// run-to-run spread exceeded the largest bound the benchmark may set.
// The write latencies: only tenant-rw's traffic has writes, and a
// bounded metric must be reported by every workload. README.md has the
// figures.
var unbounded = []metricDef{
	{"check_p99_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"write_p99_ms", "ms"},
	{"peak_rps", "1/s"},
	{"scan_stmts_per_s", "1/s"},
}

// perLayer lists the per-layer metrics of a traced run. A layer a
// workload leaves idle reports 0 there.
var perLayer = []metricDef{
	{"sqlcheckd.unattributed_ms", "ms"},
	{"sqlcheckd.response_bytes", "bytes"},
	{"sqlcheckd.admission_wait_ms", "ms"},
	{"sqlcheckd.buffers_allocated", "count"},
	{"sqlcheck.decode_us", "us"},
	{"sqlcheck.encode_us", "us"},
	{"sqlcheck.check_us.warm", "us"},
	{"sqlcheck.check_us.miss", "us"},
	{"sqlcheck.request_self_us", "us"},
	{"core.phase.parse_us", "us"},
	{"core.phase.profile_us", "us"},
	{"core.phase.context_us", "us"},
	{"core.phase.query_rules_us", "us"},
	{"core.phase.global_us", "us"},
	{"core.report_cache.hit_ratio", "ratio"},
	{"core.report_cache.variant_miss_ratio", "ratio"},
	{"core.report_cache.evictions", "count"},
	{"core.parse_cache.hit_ratio", "ratio"},
	{"core.profile_cache.hit_ratio", "ratio"},
	{"core.coalesce.in_batch", "count"},
	{"core.coalesce.singleflight", "count"},
	{"core.snapshots", "count"},
	{"sqltoken.fingerprint_us", "us"},
	{"parser.parse_us_per_stmt", "us"},
	{"qanalyze.analyze_us_per_stmt", "us"},
	{"appctx.build_us", "us"},
	{"rules.detect_us", "us"},
	{"rank.rank_us", "us"},
	{"fix.repair_us", "us"},
	{"profile.table_us", "us"},
	{"storage.snapshot_us", "us"},
	{"exec.exec_us_per_stmt", "us"},
	{"storage.page_cache.faults", "count"},
	{"storage.page_cache.spills", "count"},
	{"storage.page_cache.evictions", "count"},
	{"storage.page_cache.resident_mib", "MiB"},
	{"wal.records", "count"},
	{"wal.checkpoints", "count"},
	{"wal.append_errors", "count"},
	{"wal.disk_bytes_per_user_byte", "ratio"},
	{"harness.gen_lag_ms", "ms"},
	{"harness.trace_overhead.check_p50_ms", "ms"},
	{"harness.trace_overhead.peak_rps", "1/s"},
}

// env is one run's configuration.
type env struct {
	ctx       context.Context
	workload  string
	seed      uint64
	seconds   int
	trace     bool
	daemonBin string
	work      string // build and scratch root (.bench_build)
	runDir    string // this run's scratch directory, removed at exit
	stamp     map[string]any
	// stealStart is the machine's CPU and steal time at the start, for
	// the share of the run the hypervisor gave to other machines.
	stealStart [2]int64
}

// result is what a workload measured.
type result struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64
	spans     []span
}

var workloads = map[string]func(*env) (*result, error){
	"serve-mix":   runServeMix,
	"tenant-rw":   runTenantRW,
	"corpus-scan": runCorpusScan,
}

func main() { os.Exit(run()) }

func run() (code int) {
	var (
		workload  = flag.String("workload", "", "workload: serve-mix, tenant-rw or corpus-scan")
		seed      = flag.Uint64("seed", 1, "input seed: the same seed gives the same requests")
		seconds   = flag.Int("seconds", 24, "measured seconds per window")
		trace     = flag.Int("trace", 0, "1 = print per-layer metrics from an extra traced window")
		daemonBin = flag.String("daemon", "", "sqlcheckd binary built from the code under test")
		work      = flag.String("work", ".bench_build", "directory for scratch data and traces")
		fault     = flag.String("fault", "", "inject a failure after set-up (error or panic); used by the hygiene tests")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *daemonBin == "" || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (serve-mix|tenant-rw|corpus-scan), -daemon and -seconds >= 1\n")
		return 2
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	// After a signal, give the workload a bounded time to unwind through
	// its deferred clean-up; then stop the children here and exit.
	go func() {
		<-ctx.Done()
		time.Sleep(30 * time.Second)
		stopAll()
		os.Exit(130)
	}()

	runDir, err := newRunDir(*work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer func() {
		p := recover()
		stopAll()
		os.RemoveAll(runDir)
		if p != nil {
			fmt.Fprintf(os.Stderr, "perfbench: panic: %v\n%s", p, debug.Stack())
			code = 1
		}
	}()

	e := &env{
		ctx: ctx, workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		daemonBin: *daemonBin, work: *work, runDir: runDir,
	}
	e.stamp = machineStamp(e)
	e.stealStart = stealTicks()
	faultHook = *fault

	res, err := fn(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "perfbench: interrupted")
		return 130
	}
	if e.trace && len(res.spans) > 0 {
		if err := writeSpans(filepath.Join(*work, "traces"), e, res.spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
	}
	return report(os.Stdout, e, res)
}

// faultHook, when set, makes afterSetup fail the run the named way,
// with the daemon running: the hygiene tests use it to prove that the
// error and panic paths stop every child.
var faultHook string

func afterSetup() error {
	switch faultHook {
	case "error":
		return errors.New("injected failure after set-up")
	case "panic":
		panic("injected panic after set-up")
	}
	return nil
}

// report prints the human-readable metrics, the stamp and, last, the
// JSON result line. The exit code is nonzero when any check failed.
func report(w io.Writer, e *env, res *result) int {
	defs, vals := endToEnd, res.e2e
	if e.trace {
		defs, vals = perLayer, res.layer
	}
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metricOut{}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !e.trace {
			fmt.Fprintf(os.Stderr, "perfbench: workload did not measure %s\n", d.name)
			return 1
		}
		metrics[d.name] = metricOut{v, d.unit}
		fmt.Fprintf(w, "%-40s %14.4f %s\n", d.name, v, d.unit)
	}
	for _, d := range unbounded {
		if v, ok := res.e2e[d.name]; ok {
			fmt.Fprintf(w, "%-40s %14.4f %s (no bound)\n", d.name, v, d.unit)
		}
	}
	errorRatio := float64(res.failed) / float64(max(res.attempted, 1))
	fmt.Fprintf(w, "%-40s %14.4f %s\n", "error_ratio", errorRatio, "ratio")
	if end := stealTicks(); end[0] > e.stealStart[0] {
		e.stamp["cpu_steal_share"] = float64(end[1]-e.stealStart[1]) / float64(end[0]-e.stealStart[0])
	}
	stamp, _ := json.Marshal(e.stamp)
	fmt.Fprintf(w, "stamp %s\n", stamp)
	correct := res.failed == 0 && res.attempted > 0
	line, _ := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{correct, max(res.attempted, 1), res.failed, metrics})
	fmt.Fprintf(w, "%s\n", line)
	if !correct {
		return 1
	}
	return 0
}

// machineStamp records what a result was measured on and with.
func machineStamp(e *env) map[string]any {
	s := map[string]any{
		"workload":             e.workload,
		"seed":                 e.seed,
		"seconds":              e.seconds,
		"trace":                e.trace,
		"nproc":                runtime.NumCPU(),
		"generator_gomaxprocs": runtime.GOMAXPROCS(0),
		"daemon_gomaxprocs":    runtime.NumCPU(),
		"go_version":           runtime.Version(),
		"cpu_model":            cpuModel(),
		"git_commit":           gitCommit(),
	}
	if raw, err := os.ReadFile(e.daemonBin); err == nil {
		sum := sha256.Sum256(raw)
		s["sqlcheckd_sha256"] = hex.EncodeToString(sum[:8])
	}
	return s
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stealTicks returns the machine's total CPU time and the part of it
// stolen by the hypervisor, in clock ticks, from /proc/stat; zeros when
// unreadable. A run with a large steal share measured a busy host.
func stealTicks() [2]int64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]int64{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return [2]int64{}
	}
	var total, steal int64
	for i, v := range f[1:9] { // user nice system idle iowait irq softirq steal
		n, _ := strconv.ParseInt(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return [2]int64{total, steal}
}

// gitCommit names the commit under test when the checkout is a git
// work tree; otherwise the sqlcheckd_sha256 stamp identifies the code.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs",
		0x794c7630: "overlayfs", 0x9123683E: "btrfs", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// sortedKeys is for deterministic iteration over small maps.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
