package main

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"

	"sqlcheck"
	"sqlcheck/internal/corpus"
	"sqlcheck/internal/parser"
	"sqlcheck/internal/qanalyze"
	"sqlcheck/internal/rules"
)

// sameJSON reports whether two JSON documents decode to equal values:
// a served body and a cold in-process result agree whatever the
// indentation.
func sameJSON(a, b []byte) bool {
	var va, vb any
	if json.Unmarshal(a, &va) != nil || json.Unmarshal(b, &vb) != nil {
		return false
	}
	return reflect.DeepEqual(va, vb)
}

// checkBody is the POST /api/check payload, decoded by the harness to
// compute the expected response in-process.
type checkBody struct {
	Query     string   `json:"query,omitempty"`
	Queries   []string `json:"queries,omitempty"`
	Workloads []struct {
		SQL string `json:"sql"`
		DB  string `json:"db,omitempty"`
	} `json:"workloads,omitempty"`
}

// expectedResponse computes, on a cold checker, the body sqlcheckd must
// serve for a SQL-only check request. The checker must be built with
// NoCoalesce; each workload opts out of the report cache, so every
// report comes from a from-scratch pipeline run.
func expectedResponse(ctx context.Context, c *sqlcheck.Checker, body []byte) ([]byte, error) {
	var req checkBody
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	var ws []sqlcheck.Workload
	if req.Query != "" {
		ws = []sqlcheck.Workload{{SQL: req.Query, NoReportCache: true}}
	}
	for _, q := range req.Queries {
		ws = append(ws, sqlcheck.Workload{SQL: q, NoReportCache: true})
	}
	for _, w := range req.Workloads {
		ws = append(ws, sqlcheck.Workload{SQL: w.SQL, DBName: w.DB, NoReportCache: true})
	}
	reports, err := c.CheckWorkloads(ctx, ws)
	if err != nil {
		return nil, err
	}
	if req.Query != "" {
		return json.Marshal(reports[0])
	}
	return json.Marshal(map[string]any{"reports": reports})
}

// prTally counts detections against ground truth.
type prTally struct{ tp, fp, fn int }

func (t prTally) precision() float64 { return ratio(t.tp, t.tp+t.fp) }
func (t prTally) recall() float64    { return ratio(t.tp, t.tp+t.fn) }

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// truthRules are the rules the GitHub corpus labels: precision and
// recall are scored over these only.
func truthRules(c *corpus.GitHubCorpus) map[string]bool {
	out := map[string]bool{}
	for _, id := range c.RuleIDsInTruth() {
		out[id] = true
	}
	return out
}

// scoreStatements scores a report on the first n statements of a
// labeled repo, per (statement, rule) pair. A schema-level finding
// (query -1) counts against the statement that created its table, or
// its index for index-overuse, as the paper's Table 2 audit does.
func (t *prTally) scoreStatements(rep *sqlcheck.Report, repo *corpus.Repo, n int, scored map[string]bool) {
	creates := make([]*qanalyze.Facts, n)
	for i := 0; i < n; i++ {
		creates[i] = qanalyze.Analyze(parser.Parse(repo.Statements[i]))
	}
	flagged := map[int]map[string]bool{}
	for _, f := range rep.Findings {
		idx := f.Query
		if idx < 0 {
			idx = creator(creates, f)
		}
		if idx < 0 || idx >= n {
			continue
		}
		if flagged[idx] == nil {
			flagged[idx] = map[string]bool{}
		}
		flagged[idx][f.Rule] = true
	}
	for idx := 0; idx < n; idx++ {
		for rule := range scored {
			got, want := flagged[idx][rule], repo.HasTruth(idx, rule)
			switch {
			case got && want:
				t.tp++
			case got:
				t.fp++
			case want:
				t.fn++
			}
		}
	}
}

func creator(facts []*qanalyze.Facts, f sqlcheck.Finding) int {
	for i, fc := range facts {
		if f.Rule == rules.IDIndexOveruse && fc.CreatesIndex != nil && strings.EqualFold(fc.CreatesIndex.Name, f.Column) {
			return i
		}
		if fc.CreatesTable != "" && strings.EqualFold(fc.CreatesTable, f.Table) {
			return i
		}
	}
	return -1
}

// scoreCounts scores a report against per-rule seeded instance counts
// (the Kaggle and Django suites label how many instances of each rule
// a database holds, not where): matched counts are true positives, the
// excess either way false positives or misses.
func (t *prTally) scoreCounts(rep *sqlcheck.Report, seeded map[string]int) {
	found := map[string]int{}
	for _, f := range rep.Findings {
		if _, ok := seeded[f.Rule]; ok {
			found[f.Rule]++
		}
	}
	for rule, want := range seeded {
		got := found[rule]
		t.tp += min(got, want)
		t.fp += max(0, got-want)
		t.fn += max(0, want-got)
	}
}
