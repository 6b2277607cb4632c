package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestSummarizeReportsSupportedTail(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[n-1-i] = float64(i + 1) // unsorted on purpose
		}
		return out
	}
	cases := []struct {
		n          int
		p50, tailQ float64
		tail, p99  float64
	}{
		{n: 1000, p50: 500, tailQ: 0.99, tail: 990, p99: 990},
		{n: 999, p50: 500, tailQ: 0.95, tail: 950, p99: 0},
		{n: 10000, p50: 5000, tailQ: 0.999, tail: 9990, p99: 9900},
		{n: 50, p50: 25, tailQ: 0, tail: 0, p99: 0},
	}
	for _, c := range cases {
		s := summarize(seq(c.n))
		if s.N != c.n || s.P50 != c.p50 || s.TailQ != c.tailQ || s.Tail != c.tail || s.P99 != c.p99 {
			t.Errorf("summarize(1..%d) = %+v, want N=%d P50=%v TailQ=%v Tail=%v P99=%v",
				c.n, s, c.n, c.p50, c.tailQ, c.tail, c.p99)
		}
		if c.tailQ > 0 && beyond(s.N, s.TailQ) < minTail {
			t.Errorf("n=%d: only %d samples beyond p%v", c.n, beyond(s.N, s.TailQ), s.TailQ*100)
		}
	}
}

func TestSegmentedP99TakesMedianSegment(t *testing.T) {
	// Three segments of 1000; the middle one holds a stall.
	var xs []float64
	for seg := 0; seg < 3; seg++ {
		for i := 0; i < 1000; i++ {
			v := 1.0
			if i >= 980 {
				v = 2 // the top 2% of every segment
			}
			if seg == 1 && i >= 900 {
				v = 100
			}
			xs = append(xs, v)
		}
	}
	got, k := segmentedP99(xs)
	if k != 3 || got != 2 {
		t.Fatalf("segmentedP99 = %v over %d segments, want 2 over 3", got, k)
	}
	if _, k := segmentedP99(xs[:999]); k != 0 {
		t.Fatalf("999 samples gave %d segments, want 0", k)
	}
}

// streamDigest hashes every request of a stream in order.
func streamDigest(ops []op) [32]byte {
	h := sha256.New()
	for _, o := range ops {
		h.Write([]byte(o.path))
		h.Write(o.body)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func TestSameSeedSameRequests(t *testing.T) {
	gens := map[string]func(seed uint64) func(n int) []op{
		"serve-mix": func(seed uint64) func(int) []op {
			return newServeMix(seed).gen
		},
		"tenant-rw": func(seed uint64) func(int) []op {
			w, err := newTenantRW(seed)
			if err != nil {
				t.Fatal(err)
			}
			return w.gen
		},
	}
	for name, mk := range gens {
		a, b, other := mk(7)(3000), mk(7)(3000), mk(8)(3000)
		if streamDigest(a) != streamDigest(b) {
			t.Errorf("%s: seed 7 gave two different request sequences", name)
		}
		if streamDigest(a) == streamDigest(other) {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", name)
		}
	}
}

func TestServeMixSharesAreExact(t *testing.T) {
	m := newServeMix(3)
	block := 0
	for _, n := range serveBlock {
		block += n
	}
	counts := map[string]int{}
	for _, o := range m.gen(100 * block) {
		counts[o.class]++
	}
	for class, n := range serveBlock {
		if counts[class] != 100*n {
			t.Errorf("class %s: %d requests, want %d", class, counts[class], 100*n)
		}
	}
}

// TestServeMixFreshNeverRepeats checks that the fresh pool outlasts a
// traced run (two windows of BENCHMARK.json's run_seconds) whose
// closed-loop bursts reach serveMaxRPS: every "fresh" check is a script
// the daemon has not served before.
func TestServeMixFreshNeverRepeats(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		RunSeconds float64 `json:"run_seconds"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	m := newServeMix(3)
	perWindow := spec.RunSeconds * (openShare*serveRate + (1-openShare)*serveMaxRPS)
	seen := map[string]bool{}
	for _, o := range m.gen(int(2 * perWindow)) {
		if o.class != "fresh" {
			continue
		}
		if seen[string(o.body)] {
			t.Fatalf("fresh script sent twice after %d fresh checks", len(seen))
		}
		seen[string(o.body)] = true
	}
	if err := m.freshExhausted(); err != nil {
		t.Fatal(err)
	}
}

// TestClosedLoopGeneratesOnlyWhatItSends checks that a closed-loop
// phase moves the request stream by exactly the ops it sent, so the
// next phase continues where it stopped.
func TestClosedLoopGeneratesOnlyWhatItSends(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	n := 0
	gen := func(k int) []op {
		ops := make([]op, k)
		for i := range ops {
			ops[i] = op{path: "/", body: []byte(strconv.Itoa(n)), class: "check"}
			n++
		}
		return ops
	}
	s := &sender{client: newClient(), base: srv.URL, order: newWriteOrder()}
	ops, outs, _ := s.closedLoop(context.Background(), gen, 2, 100*time.Millisecond)
	if len(ops) == 0 || len(ops) != len(outs) || len(ops) != n {
		t.Fatalf("sent %d ops with %d outcomes, generated %d", len(ops), len(outs), n)
	}
	sent := map[string]bool{}
	for i := range ops {
		if !outs[i].ok() {
			t.Fatalf("op %d failed: %d %v", i, outs[i].status, outs[i].err)
		}
		sent[string(ops[i].body)] = true
	}
	if len(sent) != n {
		t.Fatalf("%d distinct ops sent, %d generated", len(sent), n)
	}
}

func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	var mu sync.Mutex
	var n int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock() // one request at a time: a stall holds up everything behind it
		defer mu.Unlock()
		n++
		if n == 10 {
			time.Sleep(stall)
		}
		w.Write([]byte("{}"))
	}))
	defer srv.Close()

	const rate = 100.0 // one request every 10ms
	ops := make([]op, 40)
	for i := range ops {
		ops[i] = op{path: "/", body: []byte("{}"), class: "check"}
	}
	s := &sender{client: newClient(), base: srv.URL, order: newWriteOrder()}
	outs := s.openLoop(context.Background(), ops, rate)
	if len(outs) != len(ops) {
		t.Fatalf("sent %d of %d", len(outs), len(ops))
	}
	start := outs[0].due
	for i, o := range outs {
		if want := start.Add(time.Duration(float64(i) / rate * float64(time.Second))); !o.due.Equal(want) {
			t.Fatalf("request %d due %v, want %v", i, o.due.Sub(start), want.Sub(start))
		}
	}
	// Request 10 (index 9) stalls the server until ~90ms+stall; the
	// request due 10ms after it waited out the rest of the stall.
	if lat := outs[10].done.Sub(outs[10].due); lat < stall-50*time.Millisecond {
		t.Errorf("request behind the stall took %v from its due time, want >= %v", lat, stall-50*time.Millisecond)
	}
	lats := make([]time.Duration, len(outs))
	for i, o := range outs {
		lats[i] = o.done.Sub(o.due)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if lats[len(lats)/2] > stall/2 && lats[0] > stall/2 {
		t.Errorf("every request looks stalled: %v", lats)
	}
}

func TestMetricCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], harness %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not in the harness", w.Name)
		}
	}
}
