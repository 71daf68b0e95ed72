package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestOversizedBodyClosesConnection: a body past MaxBodyBytes answers
// 413 with the request ID in the error body and marks the connection
// for closing — the rest of the oversized body must never be read as
// the next request of a kept-alive connection. (The body cap has to be
// handed the server's own ResponseWriter for that; a wrapper hides the
// hook http.MaxBytesReader signals through.)
func TestOversizedBodyClosesConnection(t *testing.T) {
	m := newTestManager(t, Config{})
	ts := httptest.NewServer(NewWith(m, Options{MaxBodyBytes: 4096}))
	defer ts.Close()

	big := `{"path":"big.f","source":"` + strings.Repeat("x", 8192) + `"}`
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized open: %d (%s), want 413", resp.StatusCode, body)
	}
	if !resp.Close {
		t.Error("413 left the connection open with the rest of the body on it")
	}
	var e ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.RequestID == "" || e.RequestID != resp.Header.Get("X-Request-ID") {
		t.Errorf("413 body %s does not carry the response's request ID %q", body, resp.Header.Get("X-Request-ID"))
	}
	if !strings.Contains(e.Error, "request body exceeds 4096 bytes") {
		t.Errorf("413 error = %q", e.Error)
	}

	// A body within the cap is served on a connection that stays open.
	resp, err = http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(`{"workload":"onedim"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || resp.Close {
		t.Errorf("open within the cap: %d, Close=%v; want 201 on a kept-alive connection", resp.StatusCode, resp.Close)
	}
}
