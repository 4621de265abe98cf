package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// pollSchedule is the fixed wait before each status poll of a job or
// sweep that is not yet done: 1, 2 and 4 ms, then every 5 ms. The polls
// are requests like any other, so their server cost shows in
// cpu_ms_per_op.
func pollDelay(k int) time.Duration {
	switch k {
	case 0:
		return time.Millisecond
	case 1:
		return 2 * time.Millisecond
	case 2:
		return 4 * time.Millisecond
	}
	return 5 * time.Millisecond
}

const pollScheduleDoc = "1ms, 2ms, 4ms, then every 5ms"

// requestTimeout bounds one request from submit to result in hand.
const requestTimeout = 60 * time.Second

// outcome is what one request observed.
type outcome struct {
	Latency time.Duration
	Done    time.Time // when the result was in hand
	// HTTPStatus is the first non-2xx status seen, 0 if none.
	HTTPStatus int
	// Status is the job's or sweep's final status.
	Status string
	// Source is the job view's source ("store" for a cache hit).
	Source   string
	TimedOut bool
	// Mismatch is set when the output differs from the reference.
	Mismatch bool
	// Err is a transport or decode error.
	Err error

	Rows      json.RawMessage // job rows as served
	CSV       []byte          // sweep CSV as served
	Cells     int             // sweep cells
	QueueWait time.Duration   // started_at - submitted_at
	Exec      time.Duration   // finished_at - started_at
}

// failure classifies an outcome: "" for success, otherwise the reason
// it counts as failed. A non-2xx reply (429 and 503 included), a job or
// sweep that did not finish done, a timeout and an output mismatch all
// fail.
func failure(o outcome) string {
	switch {
	case o.TimedOut:
		return "timeout"
	case o.HTTPStatus != 0:
		return "http " + strconv.Itoa(o.HTTPStatus)
	case o.Err != nil:
		return "error: " + o.Err.Error()
	case o.Status != "done":
		return "status " + o.Status
	case o.Mismatch:
		return "mismatch"
	}
	return ""
}

// client is one closed-loop client: it sends its next request only
// after the previous one completed. It authenticates as its own tenant.
type client struct {
	hc   *http.Client
	base string
	key  string
}

func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Authorization", "Bearer "+c.key)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// jobView is the part of GET /v1/jobs/{id} the benchmark reads.
type jobView struct {
	Status      string          `json:"status"`
	Source      string          `json:"source"`
	Rows        json.RawMessage `json:"rows"`
	SubmittedAt time.Time       `json:"submitted_at"`
	StartedAt   time.Time       `json:"started_at"`
	FinishedAt  time.Time       `json:"finished_at"`
}

func terminal(status string) bool {
	switch status {
	case "done", "failed", "cancelled", "interrupted":
		return true
	}
	return false
}

// runJob submits a job spec and polls it until it is terminal.
func (c *client) runJob(ctx context.Context, req Request) (o outcome) {
	start := time.Now()
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	defer func() {
		o.Done = time.Now()
		o.Latency = o.Done.Sub(start)
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			o.TimedOut = true
		}
	}()
	code, body, err := c.do(ctx, http.MethodPost, "/v1/jobs", req.Body)
	if err != nil {
		o.Err = err
		return o
	}
	if code != http.StatusAccepted {
		o.HTTPStatus = code
		return o
	}
	var sub struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		o.Err = err
		return o
	}
	var v jobView
	for k := 0; ; k++ {
		if k > 0 || !terminal(sub.Status) {
			select {
			case <-time.After(pollDelay(k)):
			case <-ctx.Done():
				o.Err = ctx.Err()
				return o
			}
		}
		code, body, err = c.do(ctx, http.MethodGet, "/v1/jobs/"+sub.ID, nil)
		if err != nil {
			o.Err = err
			return o
		}
		if code != http.StatusOK {
			o.HTTPStatus = code
			return o
		}
		v = jobView{}
		if err := json.Unmarshal(body, &v); err != nil {
			o.Err = err
			return o
		}
		if terminal(v.Status) {
			break
		}
	}
	o.Status, o.Source, o.Rows = v.Status, v.Source, v.Rows
	if !v.StartedAt.IsZero() {
		o.QueueWait = v.StartedAt.Sub(v.SubmittedAt)
		o.Exec = v.FinishedAt.Sub(v.StartedAt)
	}
	return o
}

// runSweep submits a grid, polls the sweep until it is terminal and
// fetches its CSV.
func (c *client) runSweep(ctx context.Context, req Request) (o outcome) {
	start := time.Now()
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	defer func() {
		o.Done = time.Now()
		o.Latency = o.Done.Sub(start)
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			o.TimedOut = true
		}
	}()
	code, body, err := c.do(ctx, http.MethodPost, "/v1/sweeps", req.Body)
	if err != nil {
		o.Err = err
		return o
	}
	if code != http.StatusAccepted {
		o.HTTPStatus = code
		return o
	}
	var sub struct {
		ID    string `json:"id"`
		Cells int    `json:"cells"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		o.Err = err
		return o
	}
	o.Cells = sub.Cells
	var v struct {
		Status string `json:"status"`
		Failed int    `json:"failed"`
	}
	for k := 0; ; k++ {
		select {
		case <-time.After(pollDelay(k)):
		case <-ctx.Done():
			o.Err = ctx.Err()
			return o
		}
		code, body, err = c.do(ctx, http.MethodGet, "/v1/sweeps/"+sub.ID, nil)
		if err != nil {
			o.Err = err
			return o
		}
		if code != http.StatusOK {
			o.HTTPStatus = code
			return o
		}
		if err := json.Unmarshal(body, &v); err != nil {
			o.Err = err
			return o
		}
		if terminal(v.Status) {
			break
		}
	}
	o.Status = v.Status
	if v.Failed > 0 {
		o.Status = fmt.Sprintf("%s with %d failed cells", v.Status, v.Failed)
	}
	code, body, err = c.do(ctx, http.MethodGet, "/v1/sweeps/"+sub.ID+"/results?format=csv", nil)
	if err != nil {
		o.Err = err
		return o
	}
	if code != http.StatusOK {
		o.HTTPStatus = code
		return o
	}
	o.CSV = body
	return o
}

// closedLoop runs the clients until next reports no more requests, and
// returns every outcome at the position next handed its request out.
func closedLoop(ctx context.Context, clients []*client, next func() (int, Request, bool), do func(*client, context.Context, Request) outcome) []outcome {
	var mu sync.Mutex
	var out []outcome
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				pos, req, ok := next()
				if !ok {
					return
				}
				o := do(c, ctx, req)
				mu.Lock()
				for len(out) <= pos {
					out = append(out, outcome{})
				}
				out[pos] = o
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return out
}

// listSource hands out a fixed list of requests once each.
func listSource(reqs []Request) func() (int, Request, bool) {
	var i atomic.Int64
	return func() (int, Request, bool) {
		k := int(i.Add(1)) - 1
		if k >= len(reqs) {
			return 0, Request{}, false
		}
		return k, reqs[k], true
	}
}

// minTimedRequests is the fewest requests a timed phase completes: p90
// needs at least 100 samples so that ten lie beyond it. A phase that
// reaches its duration with fewer keeps its last window going until it
// has them.
const minTimedRequests = 100

// windowSource hands out generated requests first, first+1, ... until
// the deadline has passed and at least minTotal requests of the whole
// phase have started. Positions are relative to first.
func windowSource(g *Generator, first int, deadline time.Time, minTotal int) func() (int, Request, bool) {
	var i atomic.Int64
	return func() (int, Request, bool) {
		k := int(i.Add(1)) - 1
		if first+k >= minTotal && time.Now().After(deadline) {
			return 0, Request{}, false
		}
		return k, g.Request(first + k), true
	}
}
