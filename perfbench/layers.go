package main

// Per-layer metrics of a traced run. Three sources, all outside the
// program: deltas of the daemon's (or the in-process Checker's)
// counters across the traced window; an in-process replay of the
// window's requests with a span per layer (request -> decode | check |
// encode); and layer isolation, which times each distinct traced
// script through one package's public functions at a time.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"sqlcheck"
	"sqlcheck/internal/appctx"
	"sqlcheck/internal/core"
	"sqlcheck/internal/exec"
	"sqlcheck/internal/fix"
	"sqlcheck/internal/parser"
	"sqlcheck/internal/profile"
	"sqlcheck/internal/qanalyze"
	"sqlcheck/internal/rank"
	"sqlcheck/internal/sqlast"
	"sqlcheck/internal/sqltoken"
	"sqlcheck/internal/storage"
)

// isolateScripts bounds how many distinct traced scripts layer
// isolation times.
const isolateScripts = 64

// engineDeltas derives the core, storage and wal metrics from two
// counter snapshots.
func engineDeltas(m map[string]float64, b, a *engineMetrics) {
	for _, p := range []string{"parse", "profile", "context", "query_rules", "global"} {
		bc, bs := b.phaseSum(p)
		ac, as := a.phaseSum(p)
		m["core.phase."+p+"_us"] = safeDiv((as-bs)*1e6, float64(ac-bc))
	}
	hits, misses := a.ReportCache.Hits-b.ReportCache.Hits, a.ReportCache.Misses-b.ReportCache.Misses
	m["core.report_cache.hit_ratio"] = safeDiv(float64(hits), float64(hits+misses))
	m["core.report_cache.variant_miss_ratio"] = safeDiv(float64(a.ReportCache.VariantMisses-b.ReportCache.VariantMisses), float64(misses))
	m["core.report_cache.evictions"] = float64(a.ReportCache.Evictions - b.ReportCache.Evictions)
	m["core.parse_cache.hit_ratio"] = hitRatio(b.Cache, a.Cache)
	m["core.profile_cache.hit_ratio"] = hitRatio(b.ProfileCache, a.ProfileCache)
	m["core.coalesce.in_batch"] = float64(a.Coalesce.InBatch - b.Coalesce.InBatch)
	m["core.coalesce.singleflight"] = float64(a.Coalesce.Singleflight - b.Coalesce.Singleflight)
	m["core.snapshots"] = float64(a.Snapshots - b.Snapshots)
	if a.PageCache != nil && b.PageCache != nil {
		m["storage.page_cache.faults"] = float64(a.PageCache.Faults - b.PageCache.Faults)
		m["storage.page_cache.spills"] = float64(a.PageCache.Spills - b.PageCache.Spills)
		m["storage.page_cache.evictions"] = float64(a.PageCache.Evictions - b.PageCache.Evictions)
		m["storage.page_cache.resident_mib"] = float64(a.PageCache.ResidentBytes) / (1 << 20)
	}
	if a.Durability != nil && b.Durability != nil {
		m["wal.records"] = float64(a.Durability.Records - b.Durability.Records)
		m["wal.checkpoints"] = float64(a.Durability.Checkpoints - b.Durability.Checkpoints)
		m["wal.append_errors"] = float64(a.Durability.AppendErrors - b.Durability.AppendErrors)
	}
}

func hitRatio(b, a cacheStats) float64 {
	h, m := a.Hits-b.Hits, a.Misses-b.Misses
	return safeDiv(float64(h), float64(h+m))
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// asEngine converts the library's snapshot to the harness's view of
// the same JSON document.
func asEngine(m sqlcheck.Metrics) engineMetrics {
	var out engineMetrics
	raw, _ := json.Marshal(m)
	json.Unmarshal(raw, &out)
	return out
}

// layerInputs is what a daemon workload hands the per-layer pass.
type layerInputs struct {
	tw       *tenantRW         // tenant-rw: tenants to replay
	fixtures map[string]string // tenant name -> fixture, for isolation
	warm     []op              // the set-up's warm-up requests
}

// daemonLayers computes the per-layer metrics of a daemon workload.
func daemonLayers(e *env, r *daemonRun, in layerInputs) (map[string]float64, []span, error) {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	w := r.traced
	b, a := &w.before, &w.after
	engineDeltas(m, &b.engineMetrics, &a.engineMetrics)
	m["sqlcheckd.admission_wait_ms"] = safeDiv((a.Admission.QueueWaitSumSeconds-b.Admission.QueueWaitSumSeconds)*1e3,
		float64(a.Admission.QueueWaitCount-b.Admission.QueueWaitCount))
	m["sqlcheckd.buffers_allocated"] = float64(a.BuffersAlloc - b.BuffersAlloc)
	m["sqlcheckd.response_bytes"] = safeDiv(float64(a.ResponseBytes-b.ResponseBytes), float64(a.Responses-b.Responses))

	// Unattributed: what a check costs the client beyond the engine's
	// phases, per request.
	var clientMS float64
	checks := 0
	for i := range w.ops {
		if !w.ops[i].write {
			clientMS += ms(w.outs[i].done.Sub(w.outs[i].sent))
			checks++
		}
	}
	var phaseSec float64
	for _, p := range a.Phases {
		_, bs := b.phaseSum(p.Phase)
		phaseSec += p.SumSeconds - bs
	}
	m["sqlcheckd.unattributed_ms"] = safeDiv(clientMS, float64(checks)) - safeDiv(phaseSec*1e3, float64(checks))

	var lag []float64
	for _, o := range r.win.open {
		lag = append(lag, ms(o.sent.Sub(o.due)))
	}
	m["harness.gen_lag_ms"] = summarize(lag).P99
	untraced, err := r.endToEnd(&r.win)
	if err != nil {
		return nil, nil, err
	}
	traced, err := r.endToEnd(w)
	if err != nil {
		return nil, nil, err
	}
	m["harness.trace_overhead.check_p50_ms"] = traced["check_p50_ms"] - untraced["check_p50_ms"]
	m["harness.trace_overhead.peak_rps"] = traced["peak_rps"] - untraced["peak_rps"]

	// In-process replay of the traced open loop from the fixtures, on a
	// checker configured like the daemon and warmed as the set-up warms
	// it.
	tr := newTracer()
	c := sqlcheck.New(sqlcheck.Options{SharedCache: sqlcheck.NewCache(64 << 20), ReportCache: sqlcheck.NewReportCache(32 << 20)})
	dbs := map[string]*sqlcheck.Database{}
	if in.tw != nil {
		replayed, err := in.tw.replay(c, nil)
		if err != nil {
			return nil, nil, err
		}
		for i, t := range in.tw.tenants {
			dbs[t.name] = replayed[i]
		}
	}
	if err := replayRequests(e.ctx, c, in.warm, dbs, nil, map[string]float64{}); err != nil {
		return nil, nil, err
	}
	if err := replayRequests(e.ctx, c, w.openOps, dbs, tr, m); err != nil {
		return nil, nil, err
	}
	isolate(m, w.openOps, in.fixtures)
	return m, append(w.spans, tr.spans...), nil
}

// replayRequests sends ops through the library in-process, one at a
// time, with a span per layer. Writes apply to the replayed tenant in
// dbs, so reads see versions move as they did on the daemon; writes to
// a database dbs does not hold are skipped.
func replayRequests(ctx context.Context, c *sqlcheck.Checker, ops []op, dbs map[string]*sqlcheck.Database, tr *tracer, m map[string]float64) error {
	var warm, miss, decode, encode []time.Duration
	for i := range ops {
		o := &ops[i]
		if o.write {
			if db := dbs[tenantOf(o.path)]; db != nil {
				var body struct{ SQL string }
				json.Unmarshal(o.body, &body)
				sp := tr.begin("write", 0)
				err := db.ExecScript(body.SQL)
				tr.end(sp)
				if err != nil {
					return fmt.Errorf("replay write: %w", err)
				}
			}
			continue
		}
		hitsBefore := c.Metrics().ReportCache.Hits
		root := tr.begin("request", 0)
		sp := tr.begin("decode", root.id)
		start := time.Now()
		var req checkBody
		if err := json.Unmarshal(o.body, &req); err != nil {
			return err
		}
		var ws []sqlcheck.Workload
		if req.Query != "" {
			ws = append(ws, sqlcheck.Workload{SQL: req.Query})
		}
		for _, q := range req.Queries {
			ws = append(ws, sqlcheck.Workload{SQL: q})
		}
		for _, w := range req.Workloads {
			ws = append(ws, sqlcheck.Workload{SQL: w.SQL, DBName: w.DB})
		}
		decode = append(decode, time.Since(start))
		tr.end(sp)

		sp = tr.begin("check", root.id)
		start = time.Now()
		reports, err := c.CheckWorkloads(ctx, ws)
		took := time.Since(start)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}

		sp = tr.begin("encode", root.id)
		start = time.Now()
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		var v any = map[string]any{"reports": reports}
		if req.Query != "" {
			v = reports[0]
		}
		if err := enc.Encode(v); err != nil {
			return err
		}
		encode = append(encode, time.Since(start))
		tr.end(sp)
		tr.end(root)

		if c.Metrics().ReportCache.Hits-hitsBefore == int64(len(ws)) {
			warm = append(warm, took)
		} else {
			miss = append(miss, took)
		}
	}
	m["sqlcheck.decode_us"] = meanUS(decode)
	m["sqlcheck.encode_us"] = meanUS(encode)
	m["sqlcheck.check_us.warm"] = meanUS(warm)
	m["sqlcheck.check_us.miss"] = meanUS(miss)
	if tr != nil {
		m["sqlcheck.request_self_us"] = us(selfTimes(tr.spans)["request"])
	}
	return nil
}

func meanUS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return us(t) / float64(len(ds))
}

// isolate times each distinct traced script through one layer's public
// functions at a time, and, for workloads with tenants, profiling,
// snapshots and DML execution over the tenant fixtures.
func isolate(m map[string]float64, ops []op, fixtures map[string]string) {
	type script struct{ sql, db string }
	var scripts []script
	seen := map[script]bool{}
	var writes []struct{ db, sql string }
	for i := range ops {
		var req checkBody
		if ops[i].write {
			var body struct{ SQL string }
			json.Unmarshal(ops[i].body, &body)
			writes = append(writes, struct{ db, sql string }{tenantOf(ops[i].path), body.SQL})
			continue
		}
		json.Unmarshal(ops[i].body, &req)
		s := script{sql: req.Query}
		if len(req.Queries) > 0 {
			s.sql = req.Queries[0]
		}
		if len(req.Workloads) > 0 {
			s = script{req.Workloads[0].SQL, req.Workloads[0].DB}
		}
		if !seen[s] && len(scripts) < isolateScripts {
			seen[s] = true
			scripts = append(scripts, s)
		}
	}

	// Tenant databases at the storage layer, built from their fixtures.
	// Profiling and snapshots are timed only on tenants that checks
	// attach; a tenant that only takes writes leaves them idle.
	stores := map[string]*storage.Database{}
	for name, f := range fixtures {
		db := storage.NewDatabase(name)
		if _, err := exec.RunAll(db, parser.ParseAll(f)); err == nil {
			stores[name] = db
		}
	}
	read := map[string]bool{}
	for _, s := range scripts {
		read[s.db] = true
	}
	cfg := appctx.DefaultConfig()
	var snapT, profT time.Duration
	var tables, snaps int
	profiles := map[string]map[string]*profile.TableProfile{}
	for name, db := range stores {
		if !read[name] {
			continue
		}
		start := time.Now()
		snap := db.Snapshot()
		snapT += time.Since(start)
		snaps++
		profiles[name] = map[string]*profile.TableProfile{}
		for _, t := range snap.Tables() {
			start := time.Now()
			p := profile.ProfileTable(t, cfg.Profile)
			profT += time.Since(start)
			profiles[name][strings.ToLower(t.Name)] = p
			tables++
		}
	}
	m["storage.snapshot_us"] = safeDiv(us(snapT), float64(snaps))
	m["profile.table_us"] = safeDiv(us(profT), float64(tables))

	var fp, parse, analyze, build, detect, rk, fx time.Duration
	var stmts int
	opts := core.DefaultOptions()
	for _, s := range scripts {
		var db *storage.Database
		if st := stores[s.db]; st != nil {
			db = st.Snapshot()
		}
		fp += timed(func() { sqltoken.FingerprintScript(s.sql) })
		var parsed []sqlast.Statement
		parse += timed(func() { parsed = parser.ParseAll(s.sql) })
		stmts += len(parsed)
		var facts []*qanalyze.Facts
		analyze += timed(func() { facts = qanalyze.AnalyzeAll(parsed) })
		var ctx *appctx.Context
		build += timed(func() { ctx = appctx.BuildWithProfiles(parsed, facts, db, cfg, profiles[s.db]) })
		detect += timed(func() { core.DetectQueries(ctx, opts) })
		findings := core.Detect(parsed, db, opts).Findings
		rk += timed(func() {
			model := rank.NewModel(rank.C1)
			model.Rank(findings)
			model.RankQueries(findings)
		})
		fx += timed(func() { fix.New(ctx).RepairAll(findings) })
	}
	n := float64(len(scripts))
	m["sqltoken.fingerprint_us"] = safeDiv(us(fp), n)
	m["parser.parse_us_per_stmt"] = safeDiv(us(parse), float64(stmts))
	m["qanalyze.analyze_us_per_stmt"] = safeDiv(us(analyze), float64(stmts))
	m["appctx.build_us"] = safeDiv(us(build), n)
	m["rules.detect_us"] = safeDiv(us(detect), n)
	m["rank.rank_us"] = safeDiv(us(rk), n)
	m["fix.repair_us"] = safeDiv(us(fx), n)

	var execT time.Duration
	var execN int
	for _, w := range writes {
		db := stores[w.db]
		if db == nil {
			continue
		}
		stmt := parser.Parse(w.sql)
		execT += timed(func() { exec.Run(db, stmt) })
		execN++
	}
	m["exec.exec_us_per_stmt"] = safeDiv(us(execT), float64(execN))
}

func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// tenantOf extracts {name} from /api/databases/{name}/exec.
func tenantOf(path string) string {
	name, _, _ := strings.Cut(strings.TrimPrefix(path, "/api/databases/"), "/")
	return name
}
