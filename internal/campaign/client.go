package campaign

import (
	"bytes"
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// RetryPolicy bounds the client's retry-with-jittered-backoff loop.
// Attempt n waits in [base·2ⁿ⁻¹/2, base·2ⁿ⁻¹], capped at Cap — the
// jitter decorrelates a fleet of workers hammering a coordinator that
// just came back. NewClient fixes the policy at 6 attempts, 100ms
// doubling to 3s.
type RetryPolicy struct {
	// Attempts is the total number of tries.
	Attempts int
	// Base is the first backoff.
	Base time.Duration
	// Cap bounds each backoff.
	Cap time.Duration
}

// backoff returns the jittered wait before retry attempt i (0-based):
// jitter(min(Base<<i, Cap)), where a shift past the int64 range also
// selects Cap.
func (p RetryPolicy) backoff(i int) time.Duration {
	d := p.Base << i
	if d <= 0 || d > p.Cap {
		d = p.Cap
	}
	return jitter(d)
}

// jitter spreads a backoff uniformly over [d/2, d] so a worker fleet
// does not stampede a coordinator that just came back.
func jitter(d time.Duration) time.Duration {
	half := int64(d) / 2
	if half <= 0 {
		return d
	}
	return time.Duration(half + rand.Int63n(half+1))
}

// Client is the typed HTTP client for a coordinator's v1 API, used by
// campaign submitters (secbench -submit, library callers via
// secmgpu.NewClient) and by workers. Every request is idempotent — the
// submission itself carries a client-minted idempotency key the
// coordinator dedupes on — so all are retried with jittered exponential
// backoff on transport errors, torn responses, and 5xx answers, and a
// coordinator restart or a flaky network is a delay, not a failure.
type Client struct {
	base  string
	http  *http.Client
	token string
	retry RetryPolicy
}

// NewClient returns a client for the coordinator at baseURL (e.g.
// "http://127.0.0.1:8123"). httpClient nil selects a default with a 60s
// overall timeout.
func NewClient(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 60 * time.Second}
	}
	return &Client{
		base:  strings.TrimRight(baseURL, "/"),
		http:  httpClient,
		retry: RetryPolicy{Attempts: 6, Base: 100 * time.Millisecond, Cap: 3 * time.Second},
	}
}

// SetToken attaches a shared bearer token to every request (matching
// the coordinator's AuthToken).
func (cl *Client) SetToken(token string) { cl.token = token }

// APIError is a non-2xx coordinator response.
type APIError struct {
	Status  int
	Message string
	// RetryAfter echoes the response's Retry-After header (0 = absent):
	// the coordinator's own hint on when shed load should come back.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("campaign: coordinator returned %d: %s", e.Status, e.Message)
}

// transient reports whether err is worth retrying: transport-level
// failures, torn responses, and 5xx-class answers qualify; 4xx answers
// are the caller's mistake and final.
func transient(err error) bool {
	if err == nil {
		return false
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Status >= 500 || apiErr.Status == http.StatusTooManyRequests ||
			apiErr.Status == http.StatusRequestTimeout
	}
	return true
}

// do issues one request, retrying per the client policy. in nil sends no
// body; out nil discards the response. A 204 yields ok=false with no
// error (used by Lease). headerK adds one header to every attempt (""
// skips it).
func (cl *Client) do(ctx context.Context, method, path string, in, out any, headerK, headerV string) (ok bool, err error) {
	var body []byte
	if in != nil {
		body, err = json.Marshal(in)
		if err != nil {
			return false, fmt.Errorf("campaign: encode request: %w", err)
		}
	}
	for i := 0; ; i++ {
		ok, err = cl.attempt(ctx, method, path, body, in != nil, out, headerK, headerV)
		if err == nil {
			return ok, nil
		}
		if ctx.Err() != nil || i >= cl.retry.Attempts-1 || !transient(err) {
			return false, err
		}
		// An overloaded coordinator's Retry-After hint overrides our own
		// backoff when it asks for more patience — it knows its backlog.
		wait := cl.retry.backoff(i)
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.RetryAfter > wait {
			wait = apiErr.RetryAfter
			if wait > maxRetryAfter {
				wait = maxRetryAfter
			}
		}
		select {
		case <-ctx.Done():
			return false, ctx.Err()
		case <-time.After(wait):
		}
	}
}

// maxRetryAfter caps how long a server-sent Retry-After hint can stall
// one retry loop iteration.
const maxRetryAfter = 30 * time.Second

// attempt issues exactly one HTTP round trip.
func (cl *Client) attempt(ctx context.Context, method, path string, body []byte, hasBody bool, out any, headerK, headerV string) (ok bool, err error) {
	var rd io.Reader
	if hasBody {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, cl.base+path, rd)
	if err != nil {
		return false, err
	}
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	if cl.token != "" {
		req.Header.Set("Authorization", "Bearer "+cl.token)
	}
	if headerK != "" {
		req.Header.Set(headerK, headerV)
	}
	resp, err := cl.http.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		return false, nil
	}
	// Read the whole body before judging it: a torn response surfaces
	// here as a read error and stays retryable.
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var envelope struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &envelope) != nil || envelope.Error == "" {
			envelope.Error = strings.TrimSpace(string(data))
		}
		apiErr := &APIError{Status: resp.StatusCode, Message: envelope.Error}
		if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs > 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
		return false, apiErr
	}
	if err != nil {
		return false, fmt.Errorf("campaign: read response: %w", err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return false, fmt.Errorf("campaign: decode response: %w", err)
		}
	}
	return true, nil
}

// Submit submits a campaign and returns its initial status (carrying the
// assigned ID). The request carries a random idempotency key, so the
// retries that make it safe over a faulty network can never start a
// duplicate campaign: a retried request that already landed returns the
// original campaign's status.
func (cl *Client) Submit(ctx context.Context, spec Spec) (Status, error) {
	var st Status
	_, err := cl.do(ctx, http.MethodPost, "/v1/campaigns", spec, &st, idemHeader, newIdemKey())
	return st, err
}

// idemHeader carries the submission idempotency key.
const idemHeader = "Idempotency-Key"

// newIdemKey mints a random submission key.
func newIdemKey() string {
	var b [16]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		// Fall back to the non-crypto source; the key only needs
		// uniqueness, not unpredictability.
		return fmt.Sprintf("k%x", rand.Int63())
	}
	return hex.EncodeToString(b[:])
}

// Campaign fetches one campaign's status.
func (cl *Client) Campaign(ctx context.Context, id string) (Status, error) {
	var st Status
	_, err := cl.do(ctx, http.MethodGet, "/v1/campaigns/"+id, nil, &st, "", "")
	return st, err
}

// Campaigns lists campaign statuses, newest first.
func (cl *Client) Campaigns(ctx context.Context) ([]Status, error) {
	var out []Status
	_, err := cl.do(ctx, http.MethodGet, "/v1/campaigns", nil, &out, "", "")
	return out, err
}

// Cancel cancels a campaign and returns its status. Cancelling is
// idempotent server-side, so it retries like a read.
func (cl *Client) Cancel(ctx context.Context, id string) (Status, error) {
	var st Status
	_, err := cl.do(ctx, http.MethodDelete, "/v1/campaigns/"+id, nil, &st, "", "")
	return st, err
}

// Tables fetches a campaign's finished tables: on a running campaign,
// the experiments finished so far.
func (cl *Client) Tables(ctx context.Context, id string) ([]TableResult, error) {
	var tables []TableResult
	_, err := cl.do(ctx, http.MethodGet, "/v1/campaigns/"+id+"/tables", nil, &tables, "", "")
	return tables, err
}

// Wait polls the campaign until it reaches a terminal state (or ctx is
// cancelled), invoking progress (if non-nil) after every poll. Transient
// errors — including a full coordinator restart, which the per-request
// retries alone may not outlast — keep the poll loop alive; only a 4xx
// answer (the campaign is unknown or the token is wrong) or ctx
// expiring ends it early.
func (cl *Client) Wait(ctx context.Context, id string, poll time.Duration, progress func(Status)) (Status, error) {
	if poll <= 0 {
		poll = time.Second
	}
	var last Status
	for {
		st, err := cl.Campaign(ctx, id)
		switch {
		case err == nil:
			last = st
			if progress != nil {
				progress(st)
			}
			if st.State.Terminal() {
				return st, nil
			}
		case !transient(err) || ctx.Err() != nil:
			return last, err
		}
		select {
		case <-ctx.Done():
			return last, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// WaitTables is Wait plus result streaming: each table is delivered to
// onTable exactly once, as soon as the coordinator has finished it,
// rather than in one batch at the end. Fetches while the campaign runs
// are best-effort and their errors swallowed. After the campaign reaches
// a terminal state a final fetch flushes any tables that landed between
// the last poll and termination; that fetch is authoritative, so its
// error is returned.
func (cl *Client) WaitTables(ctx context.Context, id string, poll time.Duration, progress func(Status), onTable func(TableResult)) (Status, error) {
	seen := make(map[string]bool)
	emit := func(tables []TableResult) {
		for _, t := range tables {
			if !seen[t.Name] {
				seen[t.Name] = true
				onTable(t)
			}
		}
	}
	st, err := cl.Wait(ctx, id, poll, func(st Status) {
		if progress != nil {
			progress(st)
		}
		if onTable != nil && !st.State.Terminal() && st.ExperimentsDone > len(seen) {
			if tables, terr := cl.Tables(ctx, id); terr == nil {
				emit(tables)
			}
		}
	})
	if err != nil || onTable == nil {
		return st, err
	}
	tables, err := cl.Tables(ctx, id)
	emit(tables)
	return st, err
}

// Health probes the coordinator's liveness endpoint and returns its
// queue and campaign metrics (the worker-autoscaling surface).
func (cl *Client) Health(ctx context.Context) (Health, error) {
	var resp Health
	if _, err := cl.do(ctx, http.MethodGet, "/v1/healthz", nil, &resp, "", ""); err != nil {
		return resp, err
	}
	if !resp.OK {
		return resp, fmt.Errorf("campaign: coordinator reports unhealthy")
	}
	return resp, nil
}

// ---- Worker side ----

// Lease asks for one cell of work. ok=false means the queue is empty.
// Retrying a lease request is safe: a grant whose response was lost is
// reclaimed by lease expiry.
func (cl *Client) Lease(ctx context.Context, worker string) (Grant, bool, error) {
	var g Grant
	ok, err := cl.do(ctx, http.MethodPost, "/v1/lease", leaseRequest{Worker: worker}, &g, "", "")
	if err != nil {
		return Grant{}, false, err
	}
	return g, ok, nil
}

// Renew heartbeats a lease, presenting the grant's fencing token. A lost
// lease (or a wrong fence) returns an *APIError with status 410; the
// worker may keep running (its publish stays valid) but should expect
// the cell to be re-leased elsewhere.
func (cl *Client) Renew(ctx context.Context, leaseID, fence string) error {
	_, err := cl.do(ctx, http.MethodPost, "/v1/lease/"+leaseID+"/renew", renewRequest{Fence: fence}, nil, "", "")
	return err
}

// Complete publishes a finished cell's result under pub.Lease, carrying
// the grant's fencing token and the worker's attested canonical result
// digest.
// Retrying is safe: re-publishing the admitted answer is accepted as a
// benign duplicate. A 409 means the coordinator rejected the publish
// (zombie lease, fence or attestation mismatch, or divergence from the
// admitted value) — final, not retried.
func (cl *Client) Complete(ctx context.Context, pub Publish) error {
	_, err := cl.do(ctx, http.MethodPost, "/v1/lease/"+pub.Lease+"/complete", pub, nil, "", "")
	return err
}

// Fail reports a failed execution attempt under the grant's fencing
// token. Idempotent: a duplicate report under the same (now dropped)
// lease is ignored server-side, so one failure burns at most one
// attempt.
func (cl *Client) Fail(ctx context.Context, leaseID, fence, digest, msg string) error {
	_, err := cl.do(ctx, http.MethodPost, "/v1/lease/"+leaseID+"/fail",
		failRequest{Digest: digest, Fence: fence, Error: msg}, nil, "", "")
	return err
}
