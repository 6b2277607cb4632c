package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

// setupReps is how many times a run sets the system up; setup_s is the
// median, and the last instance is the one measured.
const setupReps = 9

// A window is cycles cycles, each an open-loop segment followed by a
// closed-loop burst that measures peak throughput; openShare of the
// time is open loop. Interleaving spreads every figure over the whole
// window, so drift in a shared machine's speed moves them alike.
const (
	cycles    = 6
	openShare = 0.8
)

// daemonPlan describes one daemon workload.
type daemonPlan struct {
	args    []string // daemon flags besides -addr and -data-dir
	durable bool     // each daemon instance gets a fresh -data-dir
	// setup registers tenants and warms the caches; it is part of
	// setup_s.
	setup func(ctx context.Context, s *sender) error
	// gen returns the next n ops of the workload's request stream.
	gen      func(n int) []op
	openRate float64 // requests per second in the open loop
}

// window is one measured run of cycles. openOps and open are the
// open-loop requests in due-time order; ops and outs hold every request
// sent, phase by phase in the order the phases ran.
type window struct {
	openOps []op
	open    []outcome
	ops     []op
	outs    []outcome
	// cycles holds each cycle's open-loop latencies.
	cycles []cycleLatencies
	// burstRPS and burstStmts are each closed-loop burst's completed
	// requests and analyzed statements per second.
	burstRPS, burstStmts []float64
	before, after        daemonMetrics
	spans                []span
}

// daemonRun is a running, measured daemon workload. The caller verifies
// outputs against it and then stops it.
type daemonRun struct {
	d       *daemon
	s       *sender
	dataDir string
	setups  []float64 // seconds
	win     window    // untraced: the end-to-end numbers
	traced  *window   // trace runs only: the per-layer numbers
	rssMiB  float64
}

func runDaemon(e *env, p daemonPlan) (*daemonRun, error) {
	r := &daemonRun{}
	var d *daemon
	// The harness's own garbage collection would show in setup_s: collect
	// before each set-up and not during it.
	gcPercent := debug.SetGCPercent(-1)
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		args := append([]string(nil), p.args...)
		dataDir := ""
		if p.durable {
			dataDir = filepath.Join(e.runDir, "data-"+strconv.Itoa(i))
			args = append(args, "-data-dir", dataDir)
		}
		start := time.Now()
		var err error
		d, err = startDaemon(e.ctx, e.daemonBin, args, []string{"GOMAXPROCS=" + strconv.Itoa(runtime.NumCPU())})
		if err != nil {
			return nil, err
		}
		s := &sender{client: newClient(), base: d.base, order: newWriteOrder()}
		if err := p.setup(e.ctx, s); err != nil {
			d.stop()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setups = append(r.setups, time.Since(start).Seconds())
		r.d, r.s, r.dataDir = d, s, dataDir
		if i < setupReps-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
			if dataDir != "" {
				os.RemoveAll(dataDir)
			}
		}
	}
	debug.SetGCPercent(gcPercent)
	e.stamp["daemon_flags"] = append([]string{}, d.args...)
	if r.dataDir != "" {
		e.stamp["data_dir_fs"] = fsType(r.dataDir)
	}
	if err := afterSetup(); err != nil {
		return r, err
	}

	var err error
	if r.win, err = r.measure(e, p, nil); err != nil {
		return r, err
	}
	if e.trace {
		w, err := r.measure(e, p, newTracer())
		if err != nil {
			return r, err
		}
		r.traced = &w
	}
	r.rssMiB, err = vmHWM(strconv.Itoa(d.pid()))
	return r, err
}

func (r *daemonRun) measure(e *env, p daemonPlan, tr *tracer) (window, error) {
	// The generator's own garbage collection would delay sends and show
	// as daemon latency; a window's garbage fits in memory, so collect
	// before it and not during it.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := e.ctx
	var w window
	var err error
	if w.before, err = scrape(ctx, r.s.client, r.d.base); err != nil {
		return w, err
	}
	cycle := time.Duration(float64(e.seconds) / cycles * float64(time.Second))
	openDur := time.Duration(openShare * float64(cycle))
	burst := cycle - openDur
	r.s.tr = tr
	defer func() { r.s.tr = nil }()
	for c := 0; c < cycles; c++ {
		ops := p.gen(int(p.openRate * openDur.Seconds()))
		outs := r.s.openLoop(ctx, ops, p.openRate)
		if ctx.Err() != nil {
			return w, ctx.Err()
		}
		w.openOps = append(w.openOps, ops...)
		w.open = append(w.open, outs...)
		w.ops, w.outs = append(w.ops, ops...), append(w.outs, outs...)
		var lat cycleLatencies
		for i, o := range outs {
			if ops[i].write {
				lat.writes = append(lat.writes, ms(o.done.Sub(o.due)))
			} else {
				lat.checks = append(lat.checks, ms(o.done.Sub(o.due)))
			}
		}

		ops, outs, start := r.s.closedLoop(ctx, p.gen, runtime.NumCPU(), burst)
		w.ops, w.outs = append(w.ops, ops...), append(w.outs, outs...)
		end := start.Add(burst)
		var done, stmts float64
		for i, o := range outs {
			if o.ok() && !o.done.After(end) {
				done++
				stmts += float64(ops[i].stmts)
			}
		}
		w.burstRPS = append(w.burstRPS, done/burst.Seconds())
		w.burstStmts = append(w.burstStmts, stmts/burst.Seconds())
		w.cycles = append(w.cycles, lat)
		if ctx.Err() != nil {
			return w, ctx.Err()
		}
	}
	if tr != nil {
		w.spans = tr.spans
	}
	w.after, err = scrape(ctx, r.s.client, r.d.base)
	return w, err
}

// sent lists every op a run sent with its outcome, phase by phase in
// the order the phases ran.
func (r *daemonRun) sent() ([]op, []outcome) {
	ops, outs := r.win.ops, r.win.outs
	if r.traced != nil {
		ops = append(append([]op(nil), ops...), r.traced.ops...)
		outs = append(append([]outcome(nil), outs...), r.traced.outs...)
	}
	return ops, outs
}

// cycleLatencies are one cycle's open-loop check and write latencies
// from their due times, in ms.
type cycleLatencies struct{ checks, writes []float64 }

// latencies returns every cycle's latencies, in the order measured.
func (w *window) latencies() (checks, writes []float64) {
	for _, c := range w.cycles {
		checks, writes = append(checks, c.checks...), append(writes, c.writes...)
	}
	return checks, writes
}

// cycleP50s returns each cycle's check and write medians.
func (w *window) cycleP50s() (checks, writes []float64) {
	for _, c := range w.cycles {
		checks = append(checks, summarize(c.checks).P50)
		writes = append(writes, summarize(c.writes).P50)
	}
	return checks, writes
}

// endToEnd computes the metrics every daemon workload reports from a
// window; precision and recall are the workload's own. A median is the
// median over cycles of each cycle's median, as peak_rps is the median
// over bursts: a stall of the shared machine moves one cycle, not the
// figure.
func (r *daemonRun) endToEnd(w *window) (map[string]float64, error) {
	checks, writes := w.latencies()
	checkP99, cseg := segmentedP99(checks)
	writeP99, wseg := segmentedP99(writes)
	if cseg == 0 || (len(writes) > 0 && wseg == 0) {
		return nil, fmt.Errorf("too few samples for a p99 with %d beyond it: %d checks, %d writes", minTail, len(checks), len(writes))
	}
	checkP50s, writeP50s := w.cycleP50s()
	m := map[string]float64{
		"setup_s":          median(r.setups),
		"check_p50_ms":     median(checkP50s),
		"check_p99_ms":     checkP99,
		"peak_rps":         median(w.burstRPS),
		"scan_stmts_per_s": median(w.burstStmts),
		"peak_rss_mib":     r.rssMiB,
	}
	if len(writes) > 0 {
		m["write_p50_ms"], m["write_p99_ms"] = median(writeP50s), writeP99
	}
	return m, nil
}

// failures counts failed requests across every window and describes
// the first few on standard error.
func (r *daemonRun) failures() (attempted, failed int64) {
	ops, outs := r.sent()
	for i := range outs {
		attempted++
		if o := &outs[i]; !o.ok() {
			failed++
			if failed <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: %s %s: status %d, error %v: %.300s\n",
					ops[i].class, ops[i].path, o.status, o.err, o.body)
			}
		}
	}
	return attempted, failed
}

// describe prints the untraced window's per-class sample counts and
// latencies, its p99 segments and burst rates, and the set-up times.
func (r *daemonRun) describe(out io.Writer) {
	w := &r.win
	byClass := map[string][]float64{}
	var lag []float64
	for i, o := range w.open {
		c := w.openOps[i].class
		byClass[c] = append(byClass[c], ms(o.done.Sub(o.due)))
		lag = append(lag, ms(o.sent.Sub(o.due)))
	}
	byClass["generator-lag"] = lag
	for _, c := range sortedKeys(byClass) {
		s := summarize(byClass[c])
		fmt.Fprintf(out, "open    %-14s n=%-6d p50=%8.3fms p%g=%8.3fms\n", c, s.N, s.P50, s.TailQ*100, s.Tail)
	}
	checks, writes := w.latencies()
	for _, k := range []struct {
		name string
		xs   []float64
	}{{"check", checks}, {"write", writes}} {
		if len(k.xs) == 0 {
			continue
		}
		n := min(maxSegments, len(k.xs)/(100*minTail))
		segs := make([]float64, n)
		for i := range segs {
			segs[i] = summarize(k.xs[i*len(k.xs)/n : (i+1)*len(k.xs)/n]).P99
		}
		fmt.Fprintf(out, "open    %s p99 by segment %.2f ms\n", k.name, segs)
	}
	checkP50s, writeP50s := w.cycleP50s()
	fmt.Fprintf(out, "cycle   check p50 %.3f ms\n", checkP50s)
	if len(writes) > 0 {
		fmt.Fprintf(out, "cycle   write p50 %.3f ms\n", writeP50s)
	}
	fmt.Fprintf(out, "closed  requests/s by burst %.0f\n", w.burstRPS)
	fmt.Fprintf(out, "setup   %.3f s\n", r.setups)
}
