package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// newClient returns an HTTP client that holds at most nproc
// connections: load never comes from more sockets than the machine has
// cores, whatever the schedule asks for.
func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// post sends one JSON request and returns the status and body.
func post(ctx context.Context, c *http.Client, url string, body []byte) (int, []byte, error) {
	return postTo(ctx, c, url, body, true)
}

// postTo sends one JSON request; the response body is returned when
// keep is set or the status is not 200, and otherwise drained without
// being buffered, so the load generator does not allocate per response.
func postTo(ctx context.Context, c *http.Client, url string, body []byte, keep bool) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if !keep && resp.StatusCode == http.StatusOK {
		_, err := io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, b)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// daemonMetrics is the subset of sqlcheckd's /metrics the harness
// reads: the JSON engine snapshot, plus the HTTP response counters
// that only the Prometheus text rendering carries.
type daemonMetrics struct {
	engineMetrics
	Admission struct {
		QueueWaitCount      int64   `json:"queue_wait_count"`
		QueueWaitSumSeconds float64 `json:"queue_wait_sum_seconds"`
	} `json:"admission"`
	Responses     int64
	ResponseBytes int64
	BuffersAlloc  int64
}

// engineMetrics mirrors the JSON of the library's Metrics snapshot. The
// harness decodes the daemon's document into it, and marshals the
// in-process Checker's snapshot through JSON into the same shape, so
// both sources feed one delta computation.
type engineMetrics struct {
	Cache        cacheStats `json:"cache"`
	ProfileCache cacheStats `json:"profile_cache"`
	ReportCache  struct {
		cacheStats
		VariantMisses int64 `json:"variant_misses"`
	} `json:"report_cache"`
	Snapshots int64 `json:"snapshots"`
	Coalesce  struct {
		InBatch      int64 `json:"in_batch"`
		Singleflight int64 `json:"singleflight"`
	} `json:"coalesce"`
	Phases []struct {
		Phase      string  `json:"phase"`
		Count      int64   `json:"count"`
		SumSeconds float64 `json:"sum_seconds"`
	} `json:"phases"`
	Durability *struct {
		Records      int64 `json:"records"`
		Checkpoints  int64 `json:"checkpoints"`
		AppendErrors int64 `json:"append_errors"`
	} `json:"durability"`
	PageCache *struct {
		ResidentBytes int64 `json:"resident_bytes"`
		Faults        int64 `json:"faults"`
		Evictions     int64 `json:"evictions"`
		Spills        int64 `json:"spills"`
	} `json:"page_cache"`
}

type cacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// scrape reads both renderings of the daemon's /metrics.
func scrape(ctx context.Context, c *http.Client, base string) (daemonMetrics, error) {
	var m daemonMetrics
	if err := getJSON(ctx, c, base+"/metrics?format=json", &m); err != nil {
		return m, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return m, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	counters := map[string]*int64{
		"sqlcheck_http_responses_total":         &m.Responses,
		"sqlcheck_http_response_bytes_total":    &m.ResponseBytes,
		"sqlcheck_http_buffers_allocated_total": &m.BuffersAlloc,
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if p := counters[name]; ok && p != nil {
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return m, fmt.Errorf("metric %s: %w", name, err)
			}
			*p = int64(f)
		}
	}
	return m, sc.Err()
}

// phaseSum returns one phase's cumulative observation count and time.
func (m *engineMetrics) phaseSum(name string) (int64, float64) {
	for _, p := range m.Phases {
		if p.Phase == name {
			return p.Count, p.SumSeconds
		}
	}
	return 0, 0
}
