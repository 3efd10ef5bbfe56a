package campaign

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"secmgpu/internal/experiments"
	"secmgpu/internal/sweep"
)

func TestParseFaultSpec(t *testing.T) {
	spec, err := ParseFaultSpec("seed=7,refuse=0.05,timeout=0.02,err=0.05,torn=0.03,dup=0.05")
	if err != nil {
		t.Fatal(err)
	}
	want := FaultSpec{Seed: 7, Refuse: 0.05, Timeout: 0.02, Err5xx: 0.05, Torn: 0.03, Dup: 0.05}
	if spec != want {
		t.Fatalf("spec = %+v, want %+v", spec, want)
	}
	if !spec.Enabled() {
		t.Fatal("non-zero spec reports disabled")
	}

	if empty, err := ParseFaultSpec("  "); err != nil || empty.Enabled() {
		t.Fatalf("empty spec: %+v, %v", empty, err)
	}
	for _, bad := range []string{"refuse=2", "refuse=-0.1", "oops=0.5", "refuse", "seed=x"} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// fastRetry keeps test retry loops snappy.
func fastRetry() RetryPolicy {
	return RetryPolicy{Attempts: 8, Base: 2 * time.Millisecond, Cap: 20 * time.Millisecond}
}

// TestFaultTransportDeterministic: the same seed produces the same fault
// sequence, and at most one fault fires per request.
func TestFaultTransportDeterministic(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"ok":true,"padding":"0123456789012345678901234567890123456789"}`))
	}))
	defer srv.Close()

	spec := FaultSpec{Seed: 42, Refuse: 0.2, Timeout: 0.1, Err5xx: 0.2, Torn: 0.1, Dup: 0.1}
	run := func() FaultStats {
		ft := NewFaultTransport(spec, nil)
		client := &http.Client{Transport: ft}
		for i := 0; i < 200; i++ {
			resp, err := client.Get(srv.URL)
			if err == nil {
				drainAndClose(resp.Body)
			}
		}
		return ft.Stats()
	}
	a := run()
	b := run()
	if a != b {
		t.Fatalf("same seed, different fault sequences:\n%+v\n%+v", a, b)
	}
	if a.Injected() == 0 {
		t.Fatal("no faults injected at 70% total probability over 200 requests")
	}
	if a.Requests != 200 {
		t.Fatalf("Requests = %d, want 200 (dup re-deliveries must not re-draw)", a.Requests)
	}
	// The exact sequence at this seed is pinned: the chaos smokes rely on
	// it staying put.
	if want := (FaultStats{Requests: 200, Refused: 39, TimedOut: 22, Injected5: 41, Torn: 17, Duplicated: 16}); a != want {
		t.Fatalf("seed 42 stats = %+v, want %+v", a, want)
	}
}

// TestFaultTransportDup: the server really sees the request twice and the
// caller sees one (the second) response.
func TestFaultTransportDup(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Write([]byte(`[]`))
	}))
	defer srv.Close()

	ft := NewFaultTransport(FaultSpec{Seed: 1, Dup: 1}, nil)
	client := NewClient(srv.URL, &http.Client{Transport: ft})
	client.retry = fastRetry()
	if _, err := client.Campaigns(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := hits.Load(); n != 2 {
		t.Fatalf("server saw %d deliveries, want 2", n)
	}
	if st := ft.Stats(); st.Duplicated != 1 {
		t.Fatalf("stats = %+v, want exactly one duplication", st)
	}
}

// TestClientRetriesThrough5xx: a coordinator that answers 503 twice before
// recovering costs retries, not a failure.
func TestClientRetriesThrough5xx(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"restarting"}`))
			return
		}
		w.Write([]byte(`[]`))
	}))
	defer srv.Close()

	client := NewClient(srv.URL, nil)
	client.retry = fastRetry()
	if _, err := client.Campaigns(context.Background()); err != nil {
		t.Fatalf("client gave up through a transient 503: %v", err)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d attempts, want 3", n)
	}
}

// TestClientRetriesTornResponse: a response cut mid-body is retried, not
// surfaced as a decode error.
func TestClientRetriesTornResponse(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Write([]byte(`[{"id":"c1","state":"done","spec":{},"experiments_done":0,"experiments_total":0,` +
			`"cells":{"delegated":0,"completed":0,"failed":0,"cache_hits":0,"store_hits":0},"created":"2026-01-01T00:00:00Z"}]`))
	}))
	defer srv.Close()

	// Tear every response: the retries must eventually... fail. Then tear
	// only the first: one retry must recover.
	always := NewClient(srv.URL, &http.Client{Transport: NewFaultTransport(FaultSpec{Seed: 3, Torn: 1}, nil)})
	always.retry = RetryPolicy{Attempts: 2, Base: time.Millisecond, Cap: time.Millisecond}
	if _, err := always.Campaigns(context.Background()); err == nil {
		t.Fatal("every response torn, yet the call succeeded")
	} else if !strings.Contains(err.Error(), "torn") {
		t.Fatalf("error %v does not surface the torn read", err)
	}

	calls.Store(0)
	tearFirst := &tearOnce{next: http.DefaultTransport}
	client := NewClient(srv.URL, &http.Client{Transport: tearFirst})
	client.retry = fastRetry()
	out, err := client.Campaigns(context.Background())
	if err != nil {
		t.Fatalf("single torn response not retried: %v", err)
	}
	if len(out) != 1 || out[0].ID != "c1" {
		t.Fatalf("decoded %+v after retry", out)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("server saw %d attempts, want 2", n)
	}
}

// tearOnce tears exactly the first response it carries.
type tearOnce struct {
	next http.RoundTripper
	done atomic.Bool
}

func (t *tearOnce) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.next.RoundTrip(req)
	if err == nil && !t.done.Swap(true) {
		resp.Body = &tornBody{r: resp.Body, remaining: 4}
	}
	return resp, err
}

// TestClientDoesNotRetryClientErrors: a 4xx is the caller's mistake;
// retrying it would only hammer the coordinator.
func TestClientDoesNotRetryClientErrors(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"no"}`))
	}))
	defer srv.Close()

	client := NewClient(srv.URL, nil)
	client.retry = fastRetry()
	if _, err := client.Campaigns(context.Background()); err == nil {
		t.Fatal("400 did not surface")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("server saw %d attempts for a 400, want 1", n)
	}
}

// TestSubmitIdempotencyKeyDedupes: the same submission delivered twice (a
// duplicating middlebox, or a client retry whose first copy landed) starts
// exactly one campaign.
func TestSubmitIdempotencyKeyDedupes(t *testing.T) {
	coord, client, _ := newService(t, time.Minute)
	ctx := context.Background()

	spec := Spec{Experiments: []string{"table1"}}
	st1, err := coord.SubmitKeyed(spec.withDefaults(), "key-1")
	if err != nil {
		t.Fatal(err)
	}
	st2, err := coord.SubmitKeyed(spec.withDefaults(), "key-1")
	if err != nil {
		t.Fatal(err)
	}
	if st1.ID != st2.ID {
		t.Fatalf("same key started two campaigns: %s, %s", st1.ID, st2.ID)
	}
	all, err := client.Campaigns(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 {
		t.Fatalf("%d campaigns after duplicate submit, want 1", len(all))
	}
}

// TestChaosCampaignEndToEnd runs a real campaign with every client — the
// submitter and both workers — behind a fault-injecting transport, and
// demands the exact same bytes a fault-free single-process run produces.
func TestChaosCampaignEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	_, plain, st := newService(t, 2*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	base := strings.TrimRight(plain.base, "/")
	faults := FaultSpec{Seed: 7, Refuse: 0.05, Timeout: 0.02, Err5xx: 0.05, Torn: 0.03, Dup: 0.05}
	transports := make([]*FaultTransport, 0, 3)
	faultyClient := func(seed int64) *Client {
		f := faults
		f.Seed = seed
		ft := NewFaultTransport(f, nil)
		transports = append(transports, ft)
		cl := NewClient(base, &http.Client{Transport: ft, Timeout: 60 * time.Second})
		cl.retry = fastRetry()
		return cl
	}

	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	for i := 0; i < 2; i++ {
		w := NewWorker(faultyClient(int64(100+i)), WorkerOptions{
			Store: st, Poll: 10 * time.Millisecond, Logf: t.Logf,
		})
		go w.Run(wctx)
	}

	submitter := faultyClient(7)
	spec := Spec{Experiments: []string{"fig9"}, Workloads: []string{"mm"}, Scale: 0.02}
	sub, err := submitter.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit through faults: %v", err)
	}
	final, err := submitter.Wait(ctx, sub.ID, 20*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("state = %s (errors: %v)", final.State, final.ExperimentErrors)
	}

	// The chaos has to have been real chaos.
	injected := 0
	for _, ft := range transports {
		injected += ft.Stats().Injected()
	}
	if injected == 0 {
		t.Fatal("fault transports injected nothing; the test proved nothing")
	}
	t.Logf("chaos: %d faults injected across %d transports", injected, len(transports))

	// Despite duplicated submissions and torn acknowledgements, exactly
	// one campaign exists and its table matches a clean run byte for byte.
	all, err := plain.Campaigns(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 {
		t.Fatalf("%d campaigns after chaotic submit, want 1", len(all))
	}
	tables, err := plain.Tables(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	p := spec.withDefaults().params()
	p.Engine = sweep.New(0)
	ref, err := experiments.Fig9(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].Text != ref.String() {
		t.Fatal("campaign table under fault injection differs from a clean single-process run")
	}
}
