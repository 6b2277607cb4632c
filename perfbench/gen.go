package main

import (
	"math/rand/v2"
	"strconv"
	"strings"

	"sqlcheck/internal/corpus"
	"sqlcheck/internal/sqltoken"
)

// paperRepos is the GitHub corpus size of the paper's §8 (Table 2).
const paperRepos = 1406

// maxScriptStmts caps a served script: one application's check
// request, not a bulk import.
const maxScriptStmts = 12

// newRand returns the workload's deterministic generator for a stream.
// Streams keep independent draws (request mix, DML, literals) from
// shifting each other when one of them changes.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// deck deals request classes in shuffled blocks with exact counts, so
// a run's class shares are exact whatever the seed.
type deck struct {
	r     *rand.Rand
	block []string
	pos   int
}

func newDeck(r *rand.Rand, counts map[string]int) *deck {
	d := &deck{r: r}
	for _, class := range sortedKeys(counts) {
		for i := 0; i < counts[class]; i++ {
			d.block = append(d.block, class)
		}
	}
	d.pos = len(d.block)
	return d
}

func (d *deck) next() string {
	if d.pos == len(d.block) {
		d.r.Shuffle(len(d.block), func(i, j int) { d.block[i], d.block[j] = d.block[j], d.block[i] })
		d.pos = 0
	}
	d.pos++
	return d.block[d.pos-1]
}

// githubCorpus is the labeled corpus a seed selects.
func githubCorpus(seed uint64, repos int) *corpus.GitHubCorpus {
	return corpus.GitHub(corpus.GitHubOptions{Repos: repos, Seed: seed})
}

// script is one repo's check request text.
type script struct {
	repo *corpus.Repo
	n    int // statements used from the repo
	sql  string
	// lits are the byte ranges of numeric literals in the script's
	// non-DDL statements: the values a literal variant redraws.
	lits []sqltoken.LitSpan
}

func newScript(repo *corpus.Repo, maxStmts int) *script {
	n := min(len(repo.Statements), maxStmts)
	s := &script{repo: repo, n: n, sql: strings.Join(repo.Statements[:n], ";\n")}
	for _, st := range sqltoken.FingerprintScript(s.sql).Stmts {
		if isDDL(st.Text) {
			continue // type parameters such as VARCHAR(40) are literals too
		}
		for _, l := range st.Literals {
			if isDigits(st.Text[l.Start:l.End]) {
				s.lits = append(s.lits, sqltoken.LitSpan{Start: st.Start + l.Start, End: st.Start + l.End})
			}
		}
	}
	return s
}

// variant redraws every numeric literal of the script's DML and
// queries: the same normalized fingerprint, different text.
func (s *script) variant(r *rand.Rand) string {
	var b strings.Builder
	prev := 0
	for _, l := range s.lits {
		b.WriteString(s.sql[prev:l.Start])
		b.WriteString(strconv.Itoa(1000 + r.IntN(1_000_000)))
		prev = l.End
	}
	b.WriteString(s.sql[prev:])
	return b.String()
}

func isDDL(stmt string) bool {
	f := strings.Fields(stmt)
	if len(f) == 0 {
		return false
	}
	switch strings.ToUpper(f[0]) {
	case "CREATE", "ALTER", "DROP":
		return true
	}
	return false
}

func isDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}
