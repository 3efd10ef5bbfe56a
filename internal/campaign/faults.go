package campaign

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"

	"secmgpu/internal/machine"
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
	err := parseSpec("fault", s, &f.Seed, map[string]*float64{
		"refuse": &f.Refuse, "timeout": &f.Timeout, "err": &f.Err5xx, "torn": &f.Torn, "dup": &f.Dup,
	})
	return f, err
}

// parseSpec parses a "seed=N,key=p,..." injector spec into seed and the
// probabilities named by probs; kind prefixes the error messages.
func parseSpec(kind, s string, seed *int64, probs map[string]*float64) error {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return fmt.Errorf("campaign: %s spec term %q is not key=value", kind, part)
		}
		if k == "seed" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return fmt.Errorf("campaign: %s seed %q: %w", kind, v, err)
			}
			*seed = n
			continue
		}
		p, err := strconv.ParseFloat(v, 64)
		if err != nil || p < 0 || p > 1 {
			return fmt.Errorf("campaign: %s probability %s=%q out of [0,1]", kind, k, v)
		}
		field, ok := probs[k]
		if !ok {
			return fmt.Errorf("campaign: unknown %s key %q", kind, k)
		}
		*field = p
	}
	return nil
}

// lottery is the seeded draw both injectors share. Each event consumes
// exactly one random number, so a sequence is independent of which
// outcomes are enabled; the outcomes are tried in order and at most one
// fires, so the total firing probability is the sum of probs.
type lottery struct {
	mu     sync.Mutex
	rng    *rand.Rand
	probs  []float64
	events int
	hits   []int // per outcome, indexed like probs
}

// newLottery returns a lottery over probs (seed 0 selects 1).
func newLottery(seed int64, probs ...float64) *lottery {
	if seed == 0 {
		seed = 1
	}
	return &lottery{rng: rand.New(rand.NewSource(seed)), probs: probs, hits: make([]int, len(probs))}
}

// draw counts one event and returns the index of the outcome that
// fired, or -1 for none.
func (l *lottery) draw() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events++
	p := l.rng.Float64()
	for i, prob := range l.probs {
		if p < prob {
			l.hits[i]++
			return i
		}
		p -= prob
	}
	return -1
}

// counts returns the event count and a copy of the per-outcome hits.
func (l *lottery) counts() (events int, hits []int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.events, slices.Clone(l.hits)
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
	lot  *lottery
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
	return &FaultTransport{next: next, lot: newLottery(spec.Seed, spec.Refuse, spec.Timeout, spec.Err5xx, spec.Torn, spec.Dup)}
}

// Stats returns a snapshot of the injection counters.
func (t *FaultTransport) Stats() FaultStats {
	n, h := t.lot.counts()
	return FaultStats{Requests: n, Refused: h[faultRefuse], TimedOut: h[faultTimeout],
		Injected5: h[fault5xx], Torn: h[faultTorn], Duplicated: h[faultDup]}
}

// RoundTrip implements http.RoundTripper.
func (t *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	switch t.lot.draw() {
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

// ByzantineSpec configures a seeded Byzantine worker: instead of losing
// messages (the FaultTransport's crash/omission model), it computes and
// then publishes wrong answers. Each probability is evaluated once per
// finished cell, in declared order; at most one behavior fires per cell.
// It exists to chaos-test the attestation/quorum/fencing defenses
// reproducibly — the defended coordinator must admit zero poisoned
// results with one of these in the fleet.
type ByzantineSpec struct {
	// Seed makes the misbehavior sequence reproducible (0 selects 1).
	Seed int64
	// Corrupt is the probability the worker publishes a deterministically
	// wrong result with a self-consistent attestation — the hardest case,
	// detectable only by independent re-execution (quorum or arbiter).
	Corrupt float64
	// Lie is the probability the worker publishes the correct result but
	// attests a wrong digest — caught immediately by the attestation
	// check.
	Lie float64
	// Zombie is the probability the worker silences its heartbeat, waits
	// for the lease to expire, and publishes anyway — caught by fencing.
	Zombie float64
}

// Enabled reports whether any behavior has a non-zero probability.
func (b ByzantineSpec) Enabled() bool {
	return b.Corrupt > 0 || b.Lie > 0 || b.Zombie > 0
}

// ParseByzantineSpec parses a comma-separated spec such as
// "seed=3,corrupt=0.6,lie=0.2,zombie=0.1". Unknown keys are rejected so
// a typo disables nothing silently. An empty string is a valid all-zero
// spec.
func ParseByzantineSpec(s string) (ByzantineSpec, error) {
	var b ByzantineSpec
	err := parseSpec("byzantine", s, &b.Seed, map[string]*float64{
		"corrupt": &b.Corrupt, "lie": &b.Lie, "zombie": &b.Zombie,
	})
	return b, err
}

// ByzantineStats counts injected misbehaviors since construction.
type ByzantineStats struct {
	Cells     int
	Corrupted int
	Lied      int
	Zombies   int
}

// Injected returns the total number of misbehaviors injected.
func (s ByzantineStats) Injected() int { return s.Corrupted + s.Lied + s.Zombies }

// The Byzantine outcomes, in ByzantineSpec field order.
const (
	byzCorrupt = iota
	byzLie
	byzZombie
)

// byzantine is the worker-side injector.
type byzantine struct{ *lottery }

// newByzantine returns an injector for spec (nil when disabled).
func newByzantine(spec ByzantineSpec) *byzantine {
	if !spec.Enabled() {
		return nil
	}
	return &byzantine{newLottery(spec.Seed, spec.Corrupt, spec.Lie, spec.Zombie)}
}

// Stats returns a snapshot of the injection counters.
func (b *byzantine) Stats() ByzantineStats {
	n, h := b.counts()
	return ByzantineStats{Cells: n, Corrupted: h[byzCorrupt], Lied: h[byzLie], Zombies: h[byzZombie]}
}

// corruptResult returns a copy of res with a deterministically wrong
// cycle count — plausible data, confidently wrong, never mutating the
// engine's cached original.
func corruptResult(res *machine.Result) *machine.Result {
	cp := *res
	cp.Cycles = cp.Cycles*2 + 12345
	return &cp
}

// lieDigest derives a well-formed but wrong attestation from the honest
// one.
func lieDigest(canonical string) string {
	if canonical == "" {
		return "00ff00ff00ff00ff"
	}
	b := []byte(canonical)
	if b[0] == '0' {
		b[0] = 'f'
	} else {
		b[0] = '0'
	}
	return string(b)
}
