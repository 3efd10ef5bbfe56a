package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"
)

// The versioned HTTP+JSON surface. Campaign endpoints serve clients;
// lease endpoints serve workers. With Options.AuthToken set, every
// endpoint except the liveness probe requires "Authorization: Bearer
// <token>" (compared in constant time) and answers 401 otherwise.
//
//	POST   /v1/campaigns              submit a Spec            -> 201 Status | 429/503 + Retry-After
//	GET    /v1/campaigns              list                     -> 200 []Status
//	GET    /v1/campaigns/{id}         status                   -> 200 Status
//	DELETE /v1/campaigns/{id}         cancel                   -> 200 Status
//	GET    /v1/campaigns/{id}/tables  finished tables          -> 200 []TableResult
//	POST   /v1/lease                  lease a cell             -> 200 Grant | 204 | 503 (draining)
//	POST   /v1/lease/{id}/renew       heartbeat (fenced)       -> 204 | 410
//	POST   /v1/lease/{id}/complete    publish a Publish        -> 204 (admitted/vote/duplicate) | 409 (rejected)
//	POST   /v1/lease/{id}/fail        report a failed attempt  -> 204 (idempotent; ignored unless fenced)
//	GET    /v1/healthz                liveness + metrics       -> 200 Health (no auth)
//
// Each body is the Go type named above, shared by handler and client. A
// Publish takes its lease from the path; the tables are what
// Coordinator.Tables returns (on a running campaign, the experiments
// finished so far).
//
// POST /v1/campaigns honours an Idempotency-Key header: re-submitting
// the same key returns the original campaign instead of starting a
// duplicate, which makes submission retry-safe.
//
// Over-limit submissions answer 429, and any request refused because
// the coordinator is draining answers 503; both carry a Retry-After
// header (integer seconds) the client retry policy honours.
//
// Errors are returned as {"error": "..."} with a 4xx/5xx status.

// leaseRequest asks for work.
type leaseRequest struct {
	Worker string `json:"worker"`
}

// renewRequest heartbeats a lease; Fence is the grant's fencing token.
type renewRequest struct {
	Fence string `json:"fence"`
}

// failRequest reports a failed attempt under the grant's fencing token.
type failRequest struct {
	Digest string `json:"digest"`
	Fence  string `json:"fence"`
	Error  string `json:"error"`
}

// CampaignProgress is one campaign's progress counters on the health
// surface.
type CampaignProgress struct {
	ID               string       `json:"id"`
	State            State        `json:"state"`
	ExperimentsDone  int          `json:"experiments_done"`
	ExperimentsTotal int          `json:"experiments_total"`
	Cells            CellProgress `json:"cells"`
}

// Health is the /v1/healthz payload: liveness plus the queue and
// campaign metrics a worker autoscaler needs — pending depth says
// whether to add workers, active leases say how many are busy, expiry
// counts say whether workers are dying, and Recovered evidences a
// journal replay after a coordinator restart.
type Health struct {
	OK bool `json:"ok"`
	// Campaigns counts known campaigns (running and terminal).
	Campaigns int `json:"campaigns"`
	// Pending and Leased are the queue depth and active lease count.
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	// Expired counts leases that timed out and requeued their task.
	Expired int `json:"expired"`
	// Recovered counts running campaigns re-submitted from the control
	// journal when this coordinator started.
	Recovered int `json:"recovered"`
	// Queue is the full activity counter set.
	Queue QueueStats `json:"queue"`
	// Scrub counts re-verifications and replaced store objects.
	Scrub ScrubHealth `json:"scrub"`
	// Progress lists per-campaign progress, newest first.
	Progress []CampaignProgress `json:"progress,omitempty"`

	// Draining is true while a graceful SIGTERM drain runs down
	// in-flight leases; CleanShutdown reports that the previous process
	// exited through such a drain rather than a crash.
	Draining      bool `json:"draining,omitempty"`
	CleanShutdown bool `json:"clean_shutdown,omitempty"`
	// RejectedSubmissions counts submissions refused 429 at the
	// admission limits.
	RejectedSubmissions int64 `json:"rejected_submissions,omitempty"`
	// Latency is per-campaign latency evidence: queue-wait and
	// lease-duration histograms.
	Latency []CampaignLatency `json:"latency,omitempty"`
}

// Handler returns the coordinator's versioned HTTP API, wrapped with
// bearer-token authentication when the coordinator has an AuthToken.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", c.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns", c.handleList)
	mux.HandleFunc("GET /v1/campaigns/{id}", c.handleStatus)
	mux.HandleFunc("DELETE /v1/campaigns/{id}", c.handleCancel)
	mux.HandleFunc("GET /v1/campaigns/{id}/tables", c.handleTables)
	mux.HandleFunc("POST /v1/lease", c.handleLease)
	mux.HandleFunc("POST /v1/lease/{id}/renew", c.handleRenew)
	mux.HandleFunc("POST /v1/lease/{id}/complete", c.handleComplete)
	mux.HandleFunc("POST /v1/lease/{id}/fail", c.handleFail)
	mux.HandleFunc("GET /v1/healthz", c.handleHealth)
	return requireAuth(c.token, mux)
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if !decodeBody(w, r, &spec) {
		return
	}
	st, err := c.SubmitKeyed(spec, r.Header.Get(idemHeader))
	if err != nil {
		var ov *OverloadError
		if errors.As(err, &ov) {
			// Shed load, don't queue it: 429 at the admission limits,
			// 503 while draining, either way with a Retry-After hint.
			status := http.StatusTooManyRequests
			if c.Draining() {
				status = http.StatusServiceUnavailable
			}
			writeRetryAfter(w, ov.RetryAfter)
			writeError(w, status, err)
			return
		}
		// Other submit errors are spec validation (unknown experiment or
		// workload, bad sizing) — all client mistakes.
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

// writeRetryAfter sets the Retry-After header (integer seconds, minimum
// 1 so the hint never rounds to "immediately").
func writeRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Campaigns())
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := c.Campaign(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("campaign: unknown campaign %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (c *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, ok := c.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("campaign: unknown campaign %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (c *Coordinator) handleTables(w http.ResponseWriter, r *http.Request) {
	tables, ok := c.Tables(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("campaign: unknown campaign %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, tables)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Worker == "" {
		req.Worker = r.RemoteAddr
	}
	if c.Draining() {
		// A draining coordinator grants nothing new: workers back off
		// and the in-flight leases run down.
		writeRetryAfter(w, 5*time.Second)
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("campaign: coordinator is draining"))
		return
	}
	g, ok := c.queue.Lease(req.Worker)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, g)
}

func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req renewRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := c.queue.Renew(r.PathValue("id"), req.Fence); err != nil {
		writeError(w, http.StatusGone, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var pub Publish
	if !decodeBody(w, r, &pub) {
		return
	}
	if pub.Digest == "" || pub.Result == nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("campaign: complete needs digest and result"))
		return
	}
	pub.Lease = r.PathValue("id")
	out := c.Complete(pub)
	if out.Verdict.Rejected() {
		writeError(w, http.StatusConflict, fmt.Errorf("campaign: publish rejected (%s): %s", out.Verdict, out.Reason))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleFail(w http.ResponseWriter, r *http.Request) {
	var req failRequest
	if !decodeBody(w, r, &req) {
		return
	}
	c.queue.Fail(r.PathValue("id"), req.Fence, req.Digest, req.Error)
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	pending, leased := c.queue.Depth()
	statuses := c.Campaigns()
	progress := make([]CampaignProgress, 0, len(statuses))
	for _, st := range statuses {
		progress = append(progress, CampaignProgress{
			ID: st.ID, State: st.State,
			ExperimentsDone: st.ExperimentsDone, ExperimentsTotal: st.ExperimentsTotal,
			Cells: st.Cells,
		})
	}
	qs := c.queue.Stats()
	writeJSON(w, http.StatusOK, Health{
		OK:                  true,
		Campaigns:           len(statuses),
		Pending:             pending,
		Leased:              leased,
		Expired:             qs.Expired,
		Recovered:           c.Recovered(),
		Queue:               qs,
		Scrub:               c.ScrubStats(),
		Progress:            progress,
		Draining:            c.Draining(),
		CleanShutdown:       c.CleanShutdown(),
		RejectedSubmissions: c.rejected.Load(),
		Latency:             c.queue.Latencies(),
	})
}

// maxBodyBytes bounds request bodies; results for large topologies stay
// well under it.
const maxBodyBytes = 64 << 20

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("campaign: undecodable request body: %w", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// Serve runs the coordinator's API on addr (or Options.Listener when
// set) until ctx is cancelled, terminating TLS when Options carries a
// certificate pair. It is the library entry point behind secmgpu.Serve
// and secbench -serve.
//
// A signal on Options.Drain triggers a graceful drain instead of a hard
// stop: lease grants and submissions answer 503 + Retry-After,
// in-flight leases finish or expire (bounded by 2×LeaseTTL+5s),
// a clean-shutdown record is journaled, and Serve returns nil.
func Serve(ctx context.Context, addr string, opts Options) error {
	c := NewCoordinator(opts)
	defer c.Close()
	srv := &http.Server{Addr: addr, Handler: c.Handler()}
	ln := opts.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", addr)
		if err != nil {
			return err
		}
	}
	errCh := make(chan error, 1)
	go func() {
		if opts.TLSCertFile != "" && opts.TLSKeyFile != "" {
			errCh <- srv.ServeTLS(ln, opts.TLSCertFile, opts.TLSKeyFile)
		} else {
			errCh <- srv.Serve(ln)
		}
	}()
	shutdown := func() {
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}
	select {
	case <-ctx.Done():
		shutdown()
		return ctx.Err()
	case <-opts.Drain:
		drainCtx, cancel := context.WithTimeout(context.Background(), c.drainTimeout())
		// The API stays up during the drain: workers must still renew,
		// complete, and fail their in-flight leases.
		err := c.Drain(drainCtx)
		cancel()
		shutdown()
		return err
	case err := <-errCh:
		return err
	}
}
