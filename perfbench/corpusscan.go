package main

// corpus-scan: the paper's §8 experiment as a one-shot CI run would do
// it. The paper-scale GitHub corpus (1,406 repos, one workload per
// repo) is checked in-process; every pass uses a fresh Checker with
// Concurrency = nproc, so caches start cold and the time is the
// pipeline's own: parse, analyze, rules, rank and fix. HTTP, report
// cache hits, profiling, the page cache and the WAL do nothing here.

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"sqlcheck"
	"sqlcheck/internal/corpus"
)

type corpusScan struct {
	corpus  *corpus.GitHubCorpus
	scripts []string
	stmts   int
}

func newCorpusScan(seed uint64) *corpusScan {
	c := githubCorpus(seed, paperRepos)
	s := &corpusScan{corpus: c}
	for _, r := range c.Repos {
		s.scripts = append(s.scripts, strings.Join(r.Statements, ";\n"))
		s.stmts += len(r.Statements)
	}
	return s
}

// scanPass is one check of every repo on a fresh checker.
type scanPass struct {
	reports []*sqlcheck.Report
	lats    []time.Duration // per repo
	metrics sqlcheck.Metrics
}

// pass checks every repo once on a fresh checker with the given pool
// size, from that many callers.
func (s *corpusScan) pass(e *env, concurrency int, tr *tracer) (*scanPass, error) {
	c := sqlcheck.New(sqlcheck.Options{Concurrency: concurrency})
	n := len(s.scripts)
	p := &scanPass{reports: make([]*sqlcheck.Report, n), lats: make([]time.Duration, n)}
	var mu sync.Mutex
	next := 0
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e.ctx.Err() == nil {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				sp := tr.begin("scan.check", 0)
				start := time.Now()
				reps, err := c.CheckWorkloads(e.ctx, []sqlcheck.Workload{{SQL: s.scripts[i]}})
				p.lats[i] = time.Since(start)
				tr.end(sp)
				if err != nil {
					mu.Lock()
					firstErr = err
					mu.Unlock()
					continue
				}
				p.reports[i] = reps[0]
			}
		}()
	}
	wg.Wait()
	if err := e.ctx.Err(); err != nil {
		return nil, err
	}
	p.metrics = c.Metrics()
	return p, firstErr
}

// digests hashes each repo's report.
func (p *scanPass) digests() [][32]byte {
	out := make([][32]byte, len(p.reports))
	for i, r := range p.reports {
		raw, _ := json.Marshal(r)
		out[i] = sha256.Sum256(raw)
	}
	return out
}

// scanSetupRepos is how many repos the set-up's first check covers.
const scanSetupRepos = 128

func runCorpusScan(e *env) (*result, error) {
	s := newCorpusScan(e.seed)
	// Set-up is what a one-shot run does before its scan reaches steady
	// state: build a Checker and run its first, cold check, here one
	// batch of the first repos. Done setupReps times; setup_s is the
	// median.
	first := make([]sqlcheck.Workload, scanSetupRepos)
	for i := range first {
		first[i] = sqlcheck.Workload{SQL: s.scripts[i]}
	}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := time.Now()
		c := sqlcheck.New(sqlcheck.Options{Concurrency: runtime.NumCPU()})
		if _, err := c.CheckWorkloads(e.ctx, first); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	nproc := runtime.NumCPU()
	e.stamp["corpus_scan"] = map[string]any{"repos": len(s.scripts), "statements": s.stmts, "concurrency": nproc}
	if err := afterSetup(); err != nil {
		return nil, err
	}

	win, err := s.window(e, nil)
	if err != nil {
		return nil, err
	}
	rss, err := vmHWM("self")
	if err != nil {
		return nil, err
	}

	// Outside the timed window: every pass's reports must equal a
	// concurrency-1 cold reference, repo by repo.
	refPass, err := s.pass(e, 1, nil)
	if err != nil {
		return nil, err
	}
	ref, reports := refPass.digests(), refPass.reports
	res := &result{}
	for _, p := range win.passes {
		res.attempted += int64(len(p.digests))
		for i := range p.digests {
			if p.digests[i] != ref[i] {
				res.failed++
			}
		}
	}
	var pr prTally
	scored := truthRules(s.corpus)
	for i, rep := range reports {
		repo := s.corpus.Repos[i]
		pr.scoreStatements(rep, repo, len(repo.Statements), scored)
	}
	f := win.figures()
	if len(win.passes) < 3 {
		return nil, fmt.Errorf("too few passes (%d)", len(win.passes))
	}
	fmt.Fprintf(os.Stdout, "passes %d in %.2fs, setup %v s\n", len(win.passes), win.busy.Seconds(), setups)
	res.e2e = map[string]float64{
		"setup_s":          median(setups),
		"check_p50_ms":     f.p50,
		"check_p99_ms":     f.p99,
		"peak_rps":         f.rps,
		"scan_stmts_per_s": f.stmtRate,
		"precision":        pr.precision(),
		"recall":           pr.recall(),
		"peak_rss_mib":     rss,
		"ok_ratio":         1 - float64(res.failed)/float64(res.attempted),
	}
	if e.trace {
		res.layer, res.spans, err = scanLayers(e, s, win)
	}
	return res, err
}

// scanWindow is what one measured window of passes produced.
type scanWindow struct {
	passes []passResult
	busy   time.Duration // time inside passes
	spans  []span
}

// passResult is what the window keeps of one pass.
type passResult struct {
	digests [][32]byte
	metrics sqlcheck.Metrics
	lats    []float64 // ms per repo check
	stmts   int
	dur     time.Duration
}

// window runs whole passes until the run's seconds are spent. Only time
// inside passes counts as busy: the reports are digested for
// verification between passes. Each pass starts from a collected heap,
// as a one-shot CI process would.
func (s *corpusScan) window(e *env, tr *tracer) (*scanWindow, error) {
	w := &scanWindow{}
	budget := time.Duration(e.seconds) * time.Second
	for w.busy < budget {
		runtime.GC()
		start := time.Now()
		p, err := s.pass(e, runtime.NumCPU(), tr)
		if err != nil {
			return nil, err
		}
		pr := passResult{metrics: p.metrics, stmts: s.stmts, dur: time.Since(start)}
		w.busy += pr.dur
		pr.digests = p.digests()
		for _, l := range p.lats {
			pr.lats = append(pr.lats, ms(l))
		}
		w.passes = append(w.passes, pr)
	}
	if tr != nil {
		w.spans = tr.spans
	}
	return w, nil
}

// scanReplay is how many repos the traced run replays in-process with
// decode and encode spans.
const scanReplay = 300

// scanLayers computes the per-layer metrics of corpus-scan from a
// second, traced window. The daemon layers are idle here and read 0.
func scanLayers(e *env, s *corpusScan, untraced *scanWindow) (map[string]float64, []span, error) {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	tr := newTracer()
	w, err := s.window(e, tr)
	if err != nil {
		return nil, nil, err
	}
	// Each pass runs on a fresh checker, so one pass's snapshot is its
	// own delta.
	after := asEngine(w.passes[0].metrics)
	engineDeltas(m, &engineMetrics{}, &after)
	traced, plain := w.figures(), untraced.figures()
	m["harness.trace_overhead.check_p50_ms"] = traced.p50 - plain.p50
	m["harness.trace_overhead.peak_rps"] = traced.rps - plain.rps

	var ops []op
	for _, sql := range s.scripts[:scanReplay] {
		ops = append(ops, checkOp("scan", map[string]string{"query": sql}, 0))
	}
	rtr := newTracer()
	if err := replayRequests(e.ctx, sqlcheck.New(), ops, nil, rtr, m); err != nil {
		return nil, nil, err
	}
	isolate(m, ops, nil)
	return m, append(w.spans, rtr.spans...), nil
}

// passFigures are a window's per-pass figures, each the median over
// passes: a pass is one CI run, and a stall of the shared machine moves
// one pass, not the figure.
type passFigures struct{ p50, p99, rps, stmtRate float64 }

func (w *scanWindow) figures() passFigures {
	var p50s, p99s, rps, stmtRates []float64
	for _, p := range w.passes {
		s := summarize(p.lats)
		p50s, p99s = append(p50s, s.P50), append(p99s, s.P99)
		rps = append(rps, float64(len(p.lats))/p.dur.Seconds())
		stmtRates = append(stmtRates, float64(p.stmts)/p.dur.Seconds())
	}
	return passFigures{median(p50s), median(p99s), median(rps), median(stmtRates)}
}
