package main

// serve-mix: the check traffic sqlcheckd serves. GitHub-corpus scripts
// with Zipf popularity over a hot set that fits the default report
// cache; 60% exact repeats (report-cache hits), 25% literal variants
// of popular scripts (variant misses, the shape of real recurring
// SQL), 10% scripts never seen before, 5% batches of 8 identical
// fresh variants (in-batch coalescing). The traffic has no writes and
// no tenants, so the profile cache, the page cache and the WAL idle.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"sync"

	"sqlcheck"
	"sqlcheck/internal/corpus"
)

const (
	serveHotSet    = 256 // scripts; ~4 MiB of reports, inside the 32 MiB default cache
	serveZipfS     = 1.1
	serveBatch     = 8
	serveKeepEvery = 8     // every 8th check's response is verified
	serveRate      = 300.0 // open-loop checks per second
	// serveRepos is the size of the corpus the scripts come from: the
	// hot set, and a pool of fresh scripts large enough that no fresh
	// script is sent twice in a traced run (two windows) even with the
	// closed-loop bursts at serveMaxRPS.
	serveRepos  = 8 * paperRepos
	serveMaxRPS = 8000
)

// serveBlock is one shuffled block of the request stream: 20 checks,
// 60% exact repeats, 25% literal variants, 10% fresh scripts and 5%
// batches.
var serveBlock = map[string]int{"exact": 12, "variant": 5, "fresh": 2, "batch": 1}

// serveMix holds one seed's inputs and its request stream.
type serveMix struct {
	corpus  *corpus.GitHubCorpus
	hot     []*script
	fresh   []*script
	nextNew int
	r       *rand.Rand
	zipf    *rand.Zipf
	deck    *deck
	nChecks int
}

func newServeMix(seed uint64) *serveMix {
	c := githubCorpus(seed, serveRepos)
	m := &serveMix{corpus: c, r: newRand(seed, 1)}
	perm := newRand(seed, 2).Perm(len(c.Repos))
	seen := map[string]bool{}
	for _, p := range perm {
		s := newScript(c.Repos[p], maxScriptStmts)
		if seen[s.sql] {
			continue
		}
		seen[s.sql] = true
		if len(m.hot) < serveHotSet && len(s.lits) > 0 {
			m.hot = append(m.hot, s)
		} else {
			m.fresh = append(m.fresh, s)
		}
	}
	m.zipf = rand.NewZipf(m.r, serveZipfS, 1, uint64(len(m.hot)-1))
	m.deck = newDeck(m.r, serveBlock)
	return m
}

// gen returns the next n ops of the stream.
func (m *serveMix) gen(n int) []op {
	ops := make([]op, 0, n)
	for len(ops) < n {
		class := m.deck.next()
		hot := m.hot[m.zipf.Uint64()]
		var o op
		switch class {
		case "variant":
			o = checkOp("variant", map[string]string{"query": hot.variant(m.r)}, hot.n)
		case "fresh":
			// Past the end of the pool the stream repeats fresh
			// scripts; the run then fails (see freshExhausted).
			s := m.fresh[m.nextNew%len(m.fresh)]
			m.nextNew++
			o = checkOp("fresh", map[string]string{"query": s.sql}, s.n)
			o.src = s
		case "batch":
			v := hot.variant(m.r)
			batch := make([]string, serveBatch)
			for i := range batch {
				batch[i] = v
			}
			o = checkOp("batch", map[string][]string{"queries": batch}, serveBatch*hot.n)
		default:
			o = checkOp("exact", map[string]string{"query": hot.sql}, hot.n)
			o.src = hot
		}
		o.keep = m.nChecks%serveKeepEvery == 0
		m.nChecks++
		ops = append(ops, o)
	}
	return ops
}

// freshExhausted reports whether the stream ran out of fresh scripts,
// so that some "fresh" requests repeated a script the daemon had
// already served.
func (m *serveMix) freshExhausted() error {
	if m.nextNew > len(m.fresh) {
		return fmt.Errorf("sent %d fresh checks from a pool of %d scripts; raise serveRepos", m.nextNew, len(m.fresh))
	}
	return nil
}

// setup sends every hot script once, so the measured window starts
// with the hot set in the report cache.
func (m *serveMix) setup(ctx context.Context, s *sender) error {
	return sendAll(ctx, s, m.warmOps())
}

func (m *serveMix) warmOps() []op {
	warm := make([]op, len(m.hot))
	for i, h := range m.hot {
		warm[i] = checkOp("warm-up", map[string]string{"query": h.sql}, h.n)
	}
	return warm
}

func runServeMix(e *env) (*result, error) {
	m := newServeMix(e.seed)
	e.stamp["serve_mix"] = map[string]any{
		"rate": serveRate, "block": serveBlock, "hot_set": len(m.hot), "zipf_s": serveZipfS,
		"fresh_pool": len(m.fresh),
	}
	r, err := runDaemon(e, daemonPlan{
		setup:    m.setup,
		gen:      m.gen,
		openRate: serveRate,
	})
	if r != nil && r.d != nil {
		defer r.d.stop()
	}
	if err != nil {
		return nil, err
	}
	if err := m.freshExhausted(); err != nil {
		return nil, err
	}
	r.describe(os.Stdout)
	res := &result{}
	if res.e2e, err = r.endToEnd(&r.win); err != nil {
		return nil, err
	}
	res.attempted, res.failed = r.failures()

	// Outside the timed windows: compare the kept responses with a cold
	// in-process checker, and score the exact scripts' reports against
	// the corpus labels.
	ops, outs := r.sent()
	mismatches, pr, err := verifyServed(e.ctx, ops, outs, truthRules(m.corpus))
	if err != nil {
		return nil, err
	}
	res.failed += int64(mismatches)
	res.e2e["precision"], res.e2e["recall"] = pr.precision(), pr.recall()
	res.e2e["ok_ratio"] = 1 - float64(res.failed)/float64(res.attempted)
	if err := r.d.stop(); err != nil {
		return nil, err
	}
	if e.trace {
		res.layer, res.spans, err = daemonLayers(e, r, layerInputs{warm: m.warmOps()})
	}
	return res, err
}

// verifyServed compares every kept response with the cold in-process
// result and scores the reports of exact corpus scripts.
func verifyServed(ctx context.Context, ops []op, outs []outcome, scored map[string]bool) (int, prTally, error) {
	checker := sqlcheck.New(sqlcheck.Options{NoCoalesce: true})
	type job struct {
		o   *op
		out *outcome
	}
	var jobs []job
	for i := range ops {
		if ops[i].keep && outs[i].ok() {
			jobs = append(jobs, job{&ops[i], &outs[i]})
		}
	}
	var (
		mu         sync.Mutex
		mismatches int
		firstErr   error
		pr         prTally
		seen       = map[*script]bool{}
		wg         sync.WaitGroup
	)
	next := make(chan job, len(jobs))
	for _, j := range jobs {
		next <- j
	}
	close(next)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				want, err := expectedResponse(ctx, checker, j.o.body)
				mu.Lock()
				switch {
				case err != nil:
					firstErr = err
				case !sameJSON(j.out.body, want):
					mismatches++
					fmt.Fprintf(os.Stderr, "perfbench: served %s report differs from the cold checker's\n", j.o.class)
				case j.o.src != nil && !seen[j.o.src]:
					seen[j.o.src] = true
					var rep sqlcheck.Report
					if err := json.Unmarshal(j.out.body, &rep); err != nil {
						firstErr = err
					} else {
						pr.scoreStatements(&rep, j.o.src.repo, j.o.src.n, scored)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(jobs) == 0 {
		return 0, pr, fmt.Errorf("no responses kept for verification")
	}
	return mismatches, pr, firstErr
}
