package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// op is one generated request.
type op struct {
	path  string // URL path
	body  []byte
	class string // traffic class, for the per-class tallies
	write bool
	// stmts is the number of statements a check analyzes (0 for writes).
	stmts int
	// tenant and ticket order writes: the writes to one tenant are sent
	// one at a time, in ticket order, so the final state is known.
	tenant, ticket int
	// keep retains the response body for verification.
	keep bool
	// src is the corpus script an exact check sends, for scoring its
	// report against the corpus labels.
	src *script
}

// outcome is one sent request.
type outcome struct {
	due, sent, done time.Time
	status          int
	err             error
	body            []byte // kept responses only
}

func (o *outcome) ok() bool { return o.err == nil && o.status == http.StatusOK }

// writeOrder serializes each tenant's writes in ticket order across
// every sender and every phase of a run.
type writeOrder struct {
	mu     sync.Mutex
	cond   *sync.Cond
	served map[int]int // tenant -> next ticket allowed to send
}

func newWriteOrder() *writeOrder {
	w := &writeOrder{served: map[int]int{}}
	w.cond = sync.NewCond(&w.mu)
	return w
}

func (w *writeOrder) wait(o *op) {
	w.mu.Lock()
	for w.served[o.tenant] != o.ticket {
		w.cond.Wait()
	}
	w.mu.Unlock()
}

func (w *writeOrder) done(o *op) {
	w.mu.Lock()
	w.served[o.tenant]++
	w.mu.Unlock()
	w.cond.Broadcast()
}

// sender issues ops against one daemon, optionally recording a client
// span per request.
type sender struct {
	client *http.Client
	base   string
	order  *writeOrder
	tr     *tracer
}

func (s *sender) send(ctx context.Context, o *op, out *outcome) {
	if o.write {
		s.order.wait(o)
		defer s.order.done(o)
	}
	out.sent = time.Now()
	sp := s.tr.begin("http."+o.class, 0)
	status, body, err := postTo(ctx, s.client, s.base+o.path, o.body, o.keep)
	s.tr.end(sp)
	out.done = time.Now()
	out.status, out.err, out.body = status, err, body
}

// openLoop sends ops[i] at start + i/rate whether or not earlier
// requests have completed: independent users, not callers waiting on
// each other. Latency counts from the due time, so a stall shows in
// every request scheduled behind it, and sent-minus-due is how late
// the generator ran.
func (s *sender) openLoop(ctx context.Context, ops []op, rate float64) []outcome {
	outs := make([]outcome, len(ops))
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	var wg sync.WaitGroup
	for i := range ops {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			outs = outs[:i]
			break
		}
		outs[i].due = due
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.send(ctx, &ops[i], &outs[i])
		}(i)
	}
	wg.Wait()
	return outs
}

// closedLoop runs workers callers that each send the next op as soon
// as their previous one completes, until dur elapses. An op is
// generated only when a caller is about to send it, so the request
// stream moves exactly by what was sent. It returns the ops sent, their
// outcomes and when it started.
func (s *sender) closedLoop(ctx context.Context, gen func(n int) []op, workers int, dur time.Duration) ([]op, []outcome, time.Time) {
	var (
		mu   sync.Mutex
		ops  []*op
		outs []*outcome
	)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				mu.Lock()
				o, out := &gen(1)[0], &outcome{}
				ops, outs = append(ops, o), append(outs, out)
				mu.Unlock()
				out.due = time.Now()
				s.send(ctx, o, out)
			}
		}()
	}
	wg.Wait()
	sent, done := make([]op, len(ops)), make([]outcome, len(outs))
	for i := range ops {
		sent[i], done[i] = *ops[i], *outs[i]
	}
	return sent, done, start
}

// checkOp builds a POST /api/check op from its JSON body.
func checkOp(class string, body any, stmts int) op {
	raw, _ := json.Marshal(body)
	return op{path: "/api/check", body: raw, class: class, stmts: stmts}
}

// sendAll sends ops from nproc callers and fails on any non-200.
func sendAll(ctx context.Context, s *sender, ops []op) error {
	outs := make([]outcome, len(ops))
	var wg sync.WaitGroup
	next := make(chan int, len(ops))
	for i := range ops {
		next <- i
	}
	close(next)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				s.send(ctx, &ops[i], &outs[i])
			}
		}()
	}
	wg.Wait()
	for i := range outs {
		if !outs[i].ok() {
			return fmt.Errorf("%s request: status %d: %v", ops[i].class, outs[i].status, outs[i].err)
		}
	}
	return nil
}
