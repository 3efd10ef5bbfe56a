package campaign

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// FaultSpec configures seeded RPC fault injection. Each probability is
// evaluated per request, in the order the fields are declared; at most
// one fault fires per request, so the total faulty fraction is the sum
// of the probabilities.
type FaultSpec struct {
	// Seed makes the fault sequence reproducible (0 selects 1).
	Seed int64
	// Refuse is the probability the connection is refused before the
	// request reaches the server (the coordinator is down or restarting).
	Refuse float64
	// Timeout is the probability the request times out client-side
	// without reaching the server.
	Timeout float64
	// Err5xx is the probability a synthesized 503 comes back instead of
	// the server's answer (a dying proxy or an overloaded coordinator).
	Err5xx float64
	// Torn is the probability the server processes the request but the
	// response body is cut mid-stream — the nastiest case, because the
	// side effect landed and only the acknowledgement was lost.
	Torn float64
	// Dup is the probability the request is delivered twice (a retrying
	// middlebox); the second response is returned. Exercises endpoint
	// idempotency with the server really seeing the duplicate.
	Dup float64
}

// Enabled reports whether any fault has a non-zero probability.
func (f FaultSpec) Enabled() bool {
	return f.Refuse > 0 || f.Timeout > 0 || f.Err5xx > 0 || f.Torn > 0 || f.Dup > 0
}

// ParseFaultSpec parses a comma-separated spec such as
// "seed=7,refuse=0.05,timeout=0.02,err=0.05,torn=0.03,dup=0.05".
// Unknown keys are rejected so a typo disables nothing silently. An
// empty string is a valid all-zero spec.
func ParseFaultSpec(s string) (FaultSpec, error) {
	var f FaultSpec
	if strings.TrimSpace(s) == "" {
		return f, nil
	}
	probs := map[string]*float64{
		"refuse": &f.Refuse, "timeout": &f.Timeout, "err": &f.Err5xx, "torn": &f.Torn, "dup": &f.Dup,
	}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return f, fmt.Errorf("campaign: fault spec term %q is not key=value", part)
		}
		if k == "seed" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return f, fmt.Errorf("campaign: fault seed %q: %w", v, err)
			}
			f.Seed = n
			continue
		}
		p, err := strconv.ParseFloat(v, 64)
		if err != nil || p < 0 || p > 1 {
			return f, fmt.Errorf("campaign: fault probability %s=%q out of [0,1]", k, v)
		}
		field, ok := probs[k]
		if !ok {
			return f, fmt.Errorf("campaign: unknown fault key %q", k)
		}
		*field = p
	}
	return f, nil
}

// FaultStats counts injected faults since construction.
type FaultStats struct {
	Requests   int
	Refused    int
	TimedOut   int
	Injected5  int
	Torn       int
	Duplicated int
}

// Injected returns the total number of faults injected.
func (s FaultStats) Injected() int {
	return s.Refused + s.TimedOut + s.Injected5 + s.Torn + s.Duplicated
}

// FaultTransport is an http.RoundTripper that injects seeded,
// reproducible RPC faults into the traffic it carries: connection
// refusals and timeouts (request never sent), 5xx responses (server
// unreachable behind a proxy), torn response bodies (side effect landed,
// acknowledgement lost) and duplicated requests (idempotency probe). It
// is the network-layer sibling of the simulator's lossy-fabric
// injector: the campaign protocol must converge under both.
type FaultTransport struct {
	next http.RoundTripper
	spec FaultSpec

	mu    sync.Mutex
	rng   *rand.Rand
	stats FaultStats
}

// The fault outcomes, in FaultSpec field order.
const (
	faultRefuse = iota
	faultTimeout
	fault5xx
	faultTorn
	faultDup
)

// NewFaultTransport wraps next (nil selects http.DefaultTransport) with
// fault injection per spec.
func NewFaultTransport(spec FaultSpec, next http.RoundTripper) *FaultTransport {
	if next == nil {
		next = http.DefaultTransport
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	return &FaultTransport{next: next, spec: spec, rng: rand.New(rand.NewSource(seed))}
}

// Stats returns a snapshot of the injection counters.
func (t *FaultTransport) Stats() FaultStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// draw counts one request and returns the fault that fires, or -1 for
// none. Each request consumes exactly one random number, so the sequence
// is independent of which faults are enabled; the faults are tried in
// FaultSpec order and at most one fires.
func (t *FaultTransport) draw() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats.Requests++
	faults := [...]struct {
		p    float64
		hits *int
	}{
		faultRefuse:  {t.spec.Refuse, &t.stats.Refused},
		faultTimeout: {t.spec.Timeout, &t.stats.TimedOut},
		fault5xx:     {t.spec.Err5xx, &t.stats.Injected5},
		faultTorn:    {t.spec.Torn, &t.stats.Torn},
		faultDup:     {t.spec.Dup, &t.stats.Duplicated},
	}
	p := t.rng.Float64()
	for i, f := range faults {
		if p < f.p {
			*f.hits++
			return i
		}
		p -= f.p
	}
	return -1
}

// RoundTrip implements http.RoundTripper.
func (t *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	switch t.draw() {
	case faultRefuse:
		drainAndClose(req.Body)
		return nil, fmt.Errorf("campaign: injected fault: connection refused")
	case faultTimeout:
		drainAndClose(req.Body)
		return nil, fmt.Errorf("campaign: injected fault: request timed out")
	case fault5xx:
		drainAndClose(req.Body)
		return &http.Response{
			StatusCode: http.StatusServiceUnavailable,
			Status:     "503 Service Unavailable (injected)",
			Proto:      req.Proto, ProtoMajor: req.ProtoMajor, ProtoMinor: req.ProtoMinor,
			Header:  http.Header{"Content-Type": []string{"application/json"}},
			Body:    io.NopCloser(bytes.NewReader([]byte(`{"error":"campaign: injected fault: 503"}`))),
			Request: req,
		}, nil
	case faultTorn:
		resp, err := t.next.RoundTrip(req)
		if err != nil {
			return resp, err
		}
		resp.Body = &tornBody{r: resp.Body, remaining: 16}
		return resp, nil
	case faultDup:
		// Deliver the request twice; the caller sees only the second
		// response. Without req.GetBody (streaming bodies) the duplicate
		// cannot be replayed, so degrade to a single delivery.
		if req.Body == nil || req.GetBody != nil {
			first, err := t.next.RoundTrip(req)
			if err == nil {
				drainAndClose(first.Body)
				dup := req.Clone(req.Context())
				if req.GetBody != nil {
					body, err := req.GetBody()
					if err != nil {
						return nil, err
					}
					dup.Body = body
				}
				return t.next.RoundTrip(dup)
			}
			return first, err
		}
		return t.next.RoundTrip(req)
	}
	return t.next.RoundTrip(req)
}

// tornBody yields a prefix of the real body, then fails as if the
// connection died mid-response.
type tornBody struct {
	r         io.ReadCloser
	remaining int
}

func (b *tornBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, fmt.Errorf("campaign: injected fault: response torn mid-body")
	}
	if len(p) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.r.Read(p)
	b.remaining -= n
	if err != nil {
		return n, err
	}
	if b.remaining <= 0 {
		return n, fmt.Errorf("campaign: injected fault: response torn mid-body")
	}
	return n, nil
}

func (b *tornBody) Close() error { return b.r.Close() }

// drainAndClose discards a request body on paths that never forward it;
// RoundTripper implementations must consume and close the body.
func drainAndClose(body io.ReadCloser) {
	if body == nil {
		return
	}
	io.Copy(io.Discard, body)
	body.Close()
}
