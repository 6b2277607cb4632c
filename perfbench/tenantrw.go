package main

// tenant-rw: durable tenants read and written over HTTP. Tenants are
// the corpus Kaggle and Django databases rendered as fixtures (their
// data fires the data rules), registered on a daemon with a data
// directory and a page cache of a quarter of the registered row bytes.
// Reads are DB-attached checks with the full rule set, Zipf-skewed
// across tenants; a fixed share of requests are small DML writes,
// serialized per tenant. Every write moves a table version, so reads
// go back through snapshot, profiling and page faults, and reads and
// writes meet on the tenant locks.

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"sqlcheck"
	"sqlcheck/internal/corpus"
	"sqlcheck/internal/storage"
)

const (
	tenantRows = 500 // rows per corpus table
	// tenantRate is the open-loop rate: with tenantBlock, 320 reads and
	// 80 writes per second.
	tenantRate  = 400.0
	tenantZipfS = 1.1
	// tenantCacheDiv sets the page cache to 1/4 of the registered row
	// bytes, so the working set does not fit.
	tenantCacheDiv = 4
)

// tenant is one registered database and its request material.
type tenant struct {
	name    string
	fixture string
	tables  []*dmlTable
	reads   [2]string // point lookups, then aggregates, one per table
	stmts   int       // statements per read script
	seeded  map[string]int
}

// tenantBlock is one shuffled block of the request stream: 80% reads,
// 20% writes.
var tenantBlock = map[string]int{"read": 8, "write": 2}

type tenantRW struct {
	tenants  []*tenant
	r        *rand.Rand
	zipf     *rand.Zipf
	deck     *deck
	tickets  []int
	rowBytes int64
}

func newTenantRW(seed uint64) (*tenantRW, error) {
	var dbs []*storage.Database
	var seeded []map[string]int
	for _, k := range corpus.KaggleSuite(corpus.KaggleSuiteOptions{Seed: seed, RowsPerTable: tenantRows}) {
		dbs, seeded = append(dbs, k.DB), append(seeded, k.Seeded)
	}
	var djangoSQL []string
	for _, a := range corpus.DjangoSuite(corpus.DjangoSuiteOptions{Seed: seed, Rows: tenantRows}) {
		if len(a.DB.Tables()) == 0 {
			continue // nothing to register or write: the app's data rules have no table
		}
		dbs, seeded = append(dbs, a.DB), append(seeded, a.Seeded)
		djangoSQL = append(djangoSQL, strings.Join(a.Statements, ";\n"))
	}
	w := &tenantRW{r: newRand(seed, 3)}
	for i, db := range dbs {
		fixture, tables, err := renderFixture(db)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", db.Name, err)
		}
		t := &tenant{name: fmt.Sprintf("t%02d-%s", i, db.Name), fixture: fixture, tables: tables, seeded: seeded[i]}
		var lookups, aggs []string
		for _, dt := range tables {
			key := dt.cols[0] + " = " + dt.rows[len(dt.rows)/2][0]
			if dt.pk >= 0 {
				key = fmt.Sprintf("%s = %d", dt.cols[dt.pk], dt.keys[w.r.IntN(len(dt.keys))])
			}
			lookups = append(lookups, fmt.Sprintf("SELECT * FROM %s WHERE %s", dt.name, key))
			col := dt.cols[len(dt.cols)-1]
			aggs = append(aggs, fmt.Sprintf("SELECT %s, COUNT(*) FROM %s GROUP BY %s", col, dt.name, col))
		}
		t.stmts = len(tables)
		t.reads = [2]string{strings.Join(lookups, ";\n"), strings.Join(aggs, ";\n")}
		if j := i - (len(dbs) - len(djangoSQL)); j >= 0 {
			// A Django tenant's first read is the application's own
			// workload: migrations plus the queries its tests capture.
			t.reads[0] = djangoSQL[j]
			t.stmts = strings.Count(djangoSQL[j], ";\n") + 1
		}
		w.tenants = append(w.tenants, t)
	}
	w.tickets = make([]int, len(w.tenants))
	w.zipf = rand.NewZipf(w.r, tenantZipfS, 1, uint64(len(w.tenants)-1))
	w.deck = newDeck(w.r, tenantBlock)
	// Measure the registered row bytes the way the page cache counts
	// them: register every tenant in-process with an unbounded budget.
	c := sqlcheck.New(sqlcheck.Options{PageCacheBytes: 1 << 50})
	if _, err := w.replay(c, nil); err != nil {
		return nil, err
	}
	w.rowBytes = c.Metrics().PageCache.ResidentBytes
	return w, nil
}

func (t *tenant) readOp(which int) op {
	body := map[string]any{"workloads": []map[string]string{{"sql": t.reads[which], "db": t.name}}}
	return checkOp("read", body, t.stmts)
}

func (w *tenantRW) gen(n int) []op {
	ops := make([]op, 0, n)
	for len(ops) < n {
		ti := int(w.zipf.Uint64())
		t := w.tenants[ti]
		if w.deck.next() == "write" {
			dt := t.tables[w.r.IntN(len(t.tables))]
			raw, _ := json.Marshal(map[string]string{"sql": dt.next(w.r)})
			ops = append(ops, op{path: "/api/databases/" + t.name + "/exec", body: raw,
				class: "write", write: true, tenant: ti, ticket: w.tickets[ti]})
			w.tickets[ti]++
			continue
		}
		ops = append(ops, t.readOp(w.r.IntN(2)))
	}
	return ops
}

// setup registers every tenant and reads each of its scripts once.
func (w *tenantRW) setup(ctx context.Context, s *sender) error {
	reg := make([]op, len(w.tenants))
	for i, t := range w.tenants {
		raw, _ := json.Marshal(map[string]string{"fixture": t.fixture})
		reg[i] = op{path: "/api/databases/" + t.name, body: raw, class: "register"}
	}
	for i := range reg {
		var out outcome
		s.send(ctx, &reg[i], &out)
		if out.err != nil || out.status != 201 {
			return fmt.Errorf("registering %s: %d %v", w.tenants[i].name, out.status, out.err)
		}
	}
	return sendAll(ctx, s, w.warmOps())
}

func (w *tenantRW) warmOps() []op {
	var warm []op
	for _, t := range w.tenants {
		warm = append(warm, t.readOp(0), t.readOp(1))
	}
	return warm
}

// replay registers every tenant on c, rebuilt from its fixture plus
// the given writes (acknowledged ones, in ticket order), and returns
// the databases.
func (w *tenantRW) replay(c *sqlcheck.Checker, writes map[int][]string) ([]*sqlcheck.Database, error) {
	dbs := make([]*sqlcheck.Database, len(w.tenants))
	for i, t := range w.tenants {
		db := sqlcheck.NewDatabase(t.name)
		if err := db.ExecScript(t.fixture); err != nil {
			return nil, fmt.Errorf("%s fixture: %w", t.name, err)
		}
		for _, sql := range writes[i] {
			if err := db.ExecScript(sql); err != nil {
				return nil, fmt.Errorf("%s replay: %w", t.name, err)
			}
		}
		if err := c.RegisterDatabase(t.name, db); err != nil {
			return nil, err
		}
		dbs[i] = db
	}
	return dbs, nil
}

func runTenantRW(e *env) (*result, error) {
	w, err := newTenantRW(e.seed)
	if err != nil {
		return nil, err
	}
	budget := w.rowBytes / tenantCacheDiv
	e.stamp["tenant_rw"] = map[string]any{
		"tenants": len(w.tenants), "rows_per_table": tenantRows, "rate": tenantRate,
		"block": tenantBlock, "zipf_s": tenantZipfS,
		"row_bytes": w.rowBytes, "page_cache_bytes": budget,
	}
	r, err := runDaemon(e, daemonPlan{
		args:     []string{"-page-cache-bytes", strconv.FormatInt(budget, 10)},
		durable:  true,
		setup:    w.setup,
		gen:      w.gen,
		openRate: tenantRate,
	})
	if r != nil && r.d != nil {
		defer r.d.stop()
	}
	if err != nil {
		return nil, err
	}
	r.describe(os.Stdout)
	res := &result{}
	if res.e2e, err = r.endToEnd(&r.win); err != nil {
		return nil, err
	}
	res.attempted, res.failed = r.failures()

	// Outside the timed windows: replay fixtures plus acknowledged
	// writes in-process; the daemon's row counts and its reports on
	// every tenant must equal the replay's.
	ops, outs := r.sent()
	writes := map[int][]string{}
	var userBytes int64
	for _, t := range w.tenants {
		userBytes += int64(len(t.fixture))
	}
	for i := range ops {
		if ops[i].write && outs[i].ok() {
			var body struct{ SQL string }
			json.Unmarshal(ops[i].body, &body)
			writes[ops[i].tenant] = append(writes[ops[i].tenant], body.SQL)
			userBytes += int64(len(body.SQL))
		}
	}
	checker := sqlcheck.New(sqlcheck.Options{NoCoalesce: true})
	dbs, err := w.replay(checker, writes)
	if err != nil {
		return nil, err
	}
	var pr prTally
	for i, t := range w.tenants {
		var info struct {
			Tables []struct {
				Name string
				Rows int
			}
		}
		res.attempted++
		if err := getJSON(e.ctx, r.s.client, r.d.base+"/api/databases/"+t.name, &info); err != nil {
			return nil, err
		}
		counts := 0
		for _, tb := range info.Tables {
			if dbs[i].RowCount(tb.Name) == tb.Rows {
				counts++
			}
		}
		if counts != len(dbs[i].Tables()) || counts != len(info.Tables) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: row counts differ from the replay\n", t.name)
			res.failed++
		}
		for which := range t.reads {
			o := t.readOp(which)
			res.attempted++
			status, body, err := post(e.ctx, r.s.client, r.d.base+o.path, o.body)
			if err != nil {
				return nil, err
			}
			want, err := expectedResponse(e.ctx, checker, o.body)
			if err != nil {
				return nil, err
			}
			if status != 200 || !sameJSON(body, want) {
				fmt.Fprintf(os.Stderr, "perfbench: %s read %d: status %d, report differs from the replay\n", t.name, which, status)
				res.failed++
				continue
			}
			if which == 0 {
				var batch struct{ Reports []*sqlcheck.Report }
				if err := json.Unmarshal(body, &batch); err != nil {
					return nil, err
				}
				pr.scoreCounts(batch.Reports[0], t.seeded)
			}
		}
	}
	res.e2e["precision"], res.e2e["recall"] = pr.precision(), pr.recall()
	res.e2e["ok_ratio"] = 1 - float64(res.failed)/float64(res.attempted)
	diskBytes := dirBytes(r.dataDir, filepath.Join(r.dataDir, "spill"))
	if err := r.d.stop(); err != nil {
		return nil, err
	}
	if e.trace {
		fixtures := map[string]string{}
		for _, t := range w.tenants {
			fixtures[t.name] = t.fixture
		}
		res.layer, res.spans, err = daemonLayers(e, r, layerInputs{tw: w, fixtures: fixtures, warm: w.warmOps()})
		if res.layer != nil {
			res.layer["wal.disk_bytes_per_user_byte"] = float64(diskBytes) / float64(userBytes)
		}
	}
	return res, err
}

// dirBytes sums the sizes of the files under dir, skipping skip.
func dirBytes(dir, skip string) int64 {
	var n int64
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path == skip {
			return filepath.SkipDir
		}
		if info, err := d.Info(); err == nil && !d.IsDir() {
			n += info.Size()
		}
		return nil
	})
	return n
}
