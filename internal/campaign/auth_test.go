package campaign

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"errors"
	"math/big"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestTokenEqual(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"secret", "secret", true},
		{"secret", "Secret", false},
		{"secret", "secret ", false},
		{"", "", true},
		{"", "x", false},
		{"short", "a-much-longer-token-of-different-length", false},
	}
	for _, c := range cases {
		if got := tokenEqual(c.a, c.b); got != c.want {
			t.Errorf("tokenEqual(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// newAuthedService is newService with a required bearer token.
func newAuthedService(t *testing.T, token string) (*Coordinator, string) {
	t.Helper()
	coord := NewCoordinator(Options{LeaseTTL: time.Minute, AuthToken: token, Logf: t.Logf})
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(func() { srv.Close(); coord.Close() })
	return coord, srv.URL
}

func TestAuthRejectsUnauthenticatedRequests(t *testing.T) {
	_, url := newAuthedService(t, "hunter2")
	ctx := context.Background()
	anon := NewClient(url, nil)
	anon.retry = RetryPolicy{Attempts: 1}

	if _, err := anon.Submit(ctx, Spec{Experiments: []string{"table1"}}); !is401(err) {
		t.Fatalf("unauthenticated submit: err = %v, want 401", err)
	}
	if _, _, err := anon.Lease(ctx, "anon"); !is401(err) {
		t.Fatalf("unauthenticated lease: err = %v, want 401", err)
	}
	if err := anon.Complete(ctx, Publish{Lease: "l000001", Digest: "deadbeef"}); !is401(err) {
		t.Fatalf("unauthenticated complete: err = %v, want 401", err)
	}
	if _, err := anon.Campaigns(ctx); !is401(err) {
		t.Fatalf("unauthenticated list: err = %v, want 401", err)
	}

	// A wrong token is just as rejected as a missing one.
	wrong := NewClient(url, nil)
	wrong.retry = RetryPolicy{Attempts: 1}
	wrong.SetToken("hunter3")
	if _, err := wrong.Submit(ctx, Spec{Experiments: []string{"table1"}}); !is401(err) {
		t.Fatalf("wrong-token submit: err = %v, want 401", err)
	}

	// The liveness probe stays open: monitors hold no credentials.
	if _, err := anon.Health(ctx); err != nil {
		t.Fatalf("unauthenticated healthz: %v", err)
	}
}

func TestAuthAcceptsTokenedRequests(t *testing.T) {
	_, url := newAuthedService(t, "hunter2")
	ctx := context.Background()
	client := NewClient(url, nil)
	client.SetToken("hunter2")

	sub, err := client.Submit(ctx, Spec{Experiments: []string{"table1"}})
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.Wait(ctx, sub.ID, 10*time.Millisecond, nil)
	if err != nil || final.State != StateDone {
		t.Fatalf("tokened campaign: state=%s err=%v", final.State, err)
	}
	if _, _, err := client.Lease(ctx, "w"); err != nil {
		t.Fatalf("tokened lease: %v", err)
	}
}

func is401(err error) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.Status == http.StatusUnauthorized
}

// TestServeTLS boots the real Serve path with a self-signed certificate
// and a pre-bound listener, then talks to it over TLS with the token.
func TestServeTLS(t *testing.T) {
	dir := t.TempDir()
	certPEM, keyPEM := selfSignedCert(t)
	certFile := filepath.Join(dir, "cert.pem")
	keyFile := filepath.Join(dir, "key.pem")
	if err := os.WriteFile(certFile, certPEM, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(keyFile, keyPEM, 0o600); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- Serve(ctx, "", Options{
			Listener: ln, AuthToken: "tls-secret", TLSCertFile: certFile, TLSKeyFile: keyFile,
			LeaseTTL: time.Minute, Logf: t.Logf,
		})
	}()

	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(certPEM) {
		t.Fatal("bad test certificate")
	}
	httpClient := &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{TLSClientConfig: &tls.Config{RootCAs: pool}},
	}
	client := NewClient("https://"+ln.Addr().String(), httpClient)
	client.SetToken("tls-secret")

	sub, err := client.Submit(ctx, Spec{Experiments: []string{"table1"}})
	if err != nil {
		t.Fatalf("submit over TLS: %v", err)
	}
	final, err := client.Wait(ctx, sub.ID, 10*time.Millisecond, nil)
	if err != nil || final.State != StateDone {
		t.Fatalf("campaign over TLS: state=%s err=%v", final.State, err)
	}

	// Plain HTTP against the TLS listener must fail, not fall through.
	plain := NewClient("http://"+ln.Addr().String(), nil)
	plain.retry = RetryPolicy{Attempts: 1}
	if _, err := plain.Health(ctx); err == nil {
		t.Fatal("plain HTTP accepted by a TLS coordinator")
	}

	cancel()
	if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve returned %v", err)
	}
}

// selfSignedCert mints a throwaway localhost certificate.
func selfSignedCert(t *testing.T) (certPEM, keyPEM []byte) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "secmgpu-test"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		IPAddresses:           []net.IP{net.ParseIP("127.0.0.1")},
		IsCA:                  true,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	keyDER, err := x509.MarshalECPrivateKey(key)
	if err != nil {
		t.Fatal(err)
	}
	certPEM = pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der})
	keyPEM = pem.EncodeToMemory(&pem.Block{Type: "EC PRIVATE KEY", Bytes: keyDER})
	return certPEM, keyPEM
}
