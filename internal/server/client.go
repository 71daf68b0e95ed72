package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"parascope/internal/httpedge"
)

// Client retry/timeout defaults; override per Client field.
const (
	// DefaultClientTimeout bounds each individual attempt.
	DefaultClientTimeout = 30 * time.Second
	// DefaultMaxRetries is how many times a failed attempt is retried
	// (so up to 1+DefaultMaxRetries attempts total).
	DefaultMaxRetries = 3
	// DefaultBaseBackoff seeds the exponential backoff schedule.
	DefaultBaseBackoff = 50 * time.Millisecond
	// DefaultMaxBackoff caps a single backoff sleep.
	DefaultMaxBackoff = 2 * time.Second
	// maxRedirectHops bounds how many migration redirects (421/307 +
	// Location) one logical request follows before giving up.
	maxRedirectHops = 3
)

// APIError is a non-2xx response from the daemon: the status code,
// the server's error message, its Retry-After hint (if any), and the
// request ID the failing exchange ran under, so callers — and the
// retry loop — can react per status and correlate the failure with
// the daemon's access log.
type APIError struct {
	Status     int
	Message    string
	RetryAfter time.Duration
	RequestID  string
	// Location carries the response's Location header — on a 421
	// Misdirected Request it names where a migrated session now lives.
	Location string
}

func (e *APIError) Error() string {
	msg := e.Message
	if msg == "" {
		msg = fmt.Sprintf("http status %d", e.Status)
	}
	if e.RequestID != "" {
		return fmt.Sprintf("%s [req %s]", msg, e.RequestID)
	}
	return msg
}

// Client drives a pedd daemon over HTTP — the transport behind
// `ped -remote` and the server benchmarks. It is resilient by
// default: every attempt runs under a timeout, and failed attempts
// are retried with exponential backoff plus jitter when it is safe —
// transport errors on idempotent requests, and 429/503 backpressure
// rejections on any request (the server refused before doing work),
// honoring the Retry-After hint.
type Client struct {
	// Base is the daemon's base URL, e.g. "http://localhost:7473".
	Base string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Timeout bounds each attempt (0 = DefaultClientTimeout,
	// negative = no per-attempt timeout).
	Timeout time.Duration
	// MaxRetries is the retry budget after the first attempt
	// (0 = DefaultMaxRetries, negative = never retry).
	MaxRetries int
	// BaseBackoff and MaxBackoff shape the backoff schedule
	// (0 = defaults).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
}

// NewClient creates a client for the daemon at base with the default
// resilience policy.
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) maxRetries() int {
	switch {
	case c.MaxRetries > 0:
		return c.MaxRetries
	case c.MaxRetries < 0:
		return 0
	default:
		return DefaultMaxRetries
	}
}

// backoff computes the sleep before retry number attempt (0-based):
// exponential from BaseBackoff, capped at MaxBackoff, with ±50%
// jitter so synchronized clients spread out; a server Retry-After
// hint is a floor.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	base, cap_ := c.BaseBackoff, c.MaxBackoff
	if base <= 0 {
		base = DefaultBaseBackoff
	}
	if cap_ <= 0 {
		cap_ = DefaultMaxBackoff
	}
	d := base << uint(attempt)
	if d > cap_ || d <= 0 {
		d = cap_
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// retryable reports whether err is worth retrying, and any server-
// mandated wait. Backpressure rejections (429/503) are always safe to
// retry — the server refused before doing work; other failures (like
// a dropped connection mid-flight) are retried only for idempotent
// methods, where a duplicate cannot double-apply.
func retryable(err error, idempotent bool) (bool, time.Duration) {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		if apiErr.Status == http.StatusTooManyRequests || apiErr.Status == http.StatusServiceUnavailable {
			return true, apiErr.RetryAfter
		}
		return false, 0
	}
	return idempotent, 0
}

// do issues one request with the retry policy; out (when non-nil)
// receives the decoded 2xx body, and non-2xx bodies become *APIError.
func (c *Client) do(ctx context.Context, method, path string, in, out interface{}) error {
	var payload []byte
	if in != nil {
		var err error
		if payload, err = json.Marshal(in); err != nil {
			return err
		}
	}
	idempotent := method == http.MethodGet || method == http.MethodHead ||
		method == http.MethodDelete || method == http.MethodPut
	return c.doBytes(ctx, method, path, payload, "application/json", in != nil, idempotent, out)
}

// doBytes runs the retry-and-redirect loop over a prepared payload.
// Migration redirects — 421 Misdirected Request (a tombstone on the
// session's old node) or 307 (a proxy handoff) carrying Location — are
// followed with the same method, body, and request ID, so a client
// riding out a live migration never sees the move. Hops are bounded
// and loops refuse: a stale pair of tombstones pointing at each other
// becomes a clear error, not a spin.
func (c *Client) doBytes(ctx context.Context, method, path string, payload []byte, contentType string, hasBody, idempotent bool, out interface{}) error {
	if ctx == nil {
		ctx = context.Background()
	}
	// One request ID for the whole logical request: retries and
	// redirect hops reuse it, so every node's access log shows the
	// journey under one ID.
	reqID := httpedge.NewRequestID()
	target := c.Base + path
	visited := map[string]bool{target: true}
	hops := 0
	for attempt := 0; ; attempt++ {
		err := c.attempt(ctx, method, target, payload, contentType, hasBody, out, reqID)
		if err == nil {
			return nil
		}
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.Location != "" &&
			(apiErr.Status == http.StatusMisdirectedRequest || apiErr.Status == http.StatusTemporaryRedirect) {
			next, rerr := redirectTarget(target, apiErr.Location)
			if rerr != nil {
				return fmt.Errorf("unusable Location %q following migration: %w", apiErr.Location, err)
			}
			if hops++; hops > maxRedirectHops {
				return fmt.Errorf("gave up after %d migration redirects at %s: %w", maxRedirectHops, next, err)
			}
			if visited[next] {
				return fmt.Errorf("migration redirect loop back to %s: %w", next, err)
			}
			visited[next] = true
			target = next
			attempt-- // a redirect is progress, not a spent retry
			continue
		}
		ok, retryAfter := retryable(err, idempotent)
		if !ok || attempt >= c.maxRetries() || ctx.Err() != nil {
			return err
		}
		t := time.NewTimer(c.backoff(attempt, retryAfter))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return err
		}
	}
}

// redirectTarget resolves a Location header (absolute or relative)
// against the URL that answered with it.
func redirectTarget(cur, loc string) (string, error) {
	base, err := url.Parse(cur)
	if err != nil {
		return "", err
	}
	ref, err := url.Parse(loc)
	if err != nil {
		return "", err
	}
	return base.ResolveReference(ref).String(), nil
}

// attempt issues one HTTP request under the per-attempt timeout.
func (c *Client) attempt(ctx context.Context, method, fullURL string, payload []byte, contentType string, hasBody bool, out interface{}, reqID string) error {
	timeout := c.Timeout
	if timeout == 0 {
		timeout = DefaultClientTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var body io.Reader
	if hasBody {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, fullURL, body)
	if err != nil {
		return err
	}
	if hasBody {
		req.Header.Set("Content-Type", contentType)
	}
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		apiErr := &APIError{Status: resp.StatusCode, RequestID: reqID}
		if id := resp.Header.Get("X-Request-ID"); id != "" {
			apiErr.RequestID = id
		}
		var e ErrorResponse
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&e) == nil && e.Error != "" {
			apiErr.Message = e.Error
		} else {
			apiErr.Message = fmt.Sprintf("%s %s: %s", method, fullURL, resp.Status)
		}
		apiErr.RetryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
		apiErr.Location = resp.Header.Get("Location")
		return apiErr
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	if raw, ok := out.(*[]byte); ok {
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		*raw = b
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// parseRetryAfter reads a Retry-After header in either RFC 9110 form:
// delta-seconds ("2") or an HTTP-date ("Mon, 02 Jan 2006 15:04:05
// GMT" and friends, via http.ParseTime). Unparsable values, negative
// deltas, deltas longer than a time.Duration holds, and dates already
// in the past yield 0 — no hint, rather than a dropped or bogus one.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 || int64(secs) > int64(math.MaxInt64/time.Second) {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// Open creates a session.
func (c *Client) Open(ctx context.Context, req OpenRequest) (OpenResponse, error) {
	var resp OpenResponse
	err := c.do(ctx, http.MethodPost, "/v1/sessions", req, &resp)
	return resp, err
}

// List enumerates the live sessions.
func (c *Client) List(ctx context.Context) ([]SessionInfo, error) {
	var resp []SessionInfo
	err := c.do(ctx, http.MethodGet, "/v1/sessions", nil, &resp)
	return resp, err
}

// Status fetches one session's state and failure diagnostics.
func (c *Client) Status(ctx context.Context, id string) (SessionStatusResponse, error) {
	var resp SessionStatusResponse
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+url.PathEscape(id), nil, &resp)
	return resp, err
}

// CloseSession deletes a session.
func (c *Client) CloseSession(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/sessions/"+url.PathEscape(id), nil, nil)
}

// Cmd runs one REPL command line in the session.
func (c *Client) Cmd(ctx context.Context, id, line string) (CmdResponse, error) {
	var resp CmdResponse
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/cmd", CmdRequest{Line: line}, &resp)
	return resp, err
}

// Run executes the session's program on the daemon through the
// unified execution API. Execution is non-idempotent from the
// transport's point of view — a lost response may mean the program
// already ran — so transport errors are never retried here (POST is
// outside do's idempotent set); only explicit server backpressure
// (429/503 with Retry-After) is.
func (c *Client) Run(ctx context.Context, id string, req RunRequest) (RunResponse, error) {
	var resp RunResponse
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/run", req, &resp)
	return resp, err
}

// Plan starts a speculative plan search (async when req.Async) or
// returns the cached result for an identical source and budget.
func (c *Client) Plan(ctx context.Context, id string, req PlanRequest) (PlanResponse, error) {
	var resp PlanResponse
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/plan", req, &resp)
	return resp, err
}

// PlanStatus polls the latest plan search result.
func (c *Client) PlanStatus(ctx context.Context, id string) (PlanResponse, error) {
	var resp PlanResponse
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+url.PathEscape(id)+"/plan", nil, &resp)
	return resp, err
}

// ApplyPlan accepts a plan; its steps replay through the session's
// journaled mutation path.
func (c *Client) ApplyPlan(ctx context.Context, id string, req ApplyPlanRequest) (ApplyPlanResponse, error) {
	var resp ApplyPlanResponse
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/apply-plan", req, &resp)
	return resp, err
}

// Select switches unit and/or loop.
func (c *Client) Select(ctx context.Context, id string, req SelectRequest) (SelectResponse, error) {
	var resp SelectResponse
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/select", req, &resp)
	return resp, err
}

// Deps fetches the selected loop's dependences.
func (c *Client) Deps(ctx context.Context, id string, q DepQuery) (DepsResponse, error) {
	v := url.Values{}
	if q.Carried {
		v.Set("carried", "1")
	}
	if q.HideRejected {
		v.Set("hiderejected", "1")
	}
	if q.HidePrivate {
		v.Set("hideprivate", "1")
	}
	if q.Sym != "" {
		v.Set("sym", q.Sym)
	}
	for _, cl := range q.Classes {
		v.Add("class", cl)
	}
	path := "/v1/sessions/" + url.PathEscape(id) + "/deps"
	if len(v) > 0 {
		path += "?" + v.Encode()
	}
	var resp DepsResponse
	err := c.do(ctx, http.MethodGet, path, nil, &resp)
	return resp, err
}

// Classify overrides a variable's classification.
func (c *Client) Classify(ctx context.Context, id string, req ClassifyRequest) error {
	return c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/classify", req, nil)
}

// Transform checks or applies a transformation.
func (c *Client) Transform(ctx context.Context, id string, req TransformRequest) (CmdResponse, error) {
	var resp CmdResponse
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/transform", req, &resp)
	return resp, err
}

// Edit replaces or deletes a statement.
func (c *Client) Edit(ctx context.Context, id string, req EditRequest) error {
	return c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/edit", req, nil)
}

// Undo reverts the last change.
func (c *Client) Undo(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/undo", nil, nil)
}

// ExportJournal fetches a session's raw journal stream — the byte
// image Import replays.
func (c *Client) ExportJournal(ctx context.Context, id string) ([]byte, error) {
	var raw []byte
	err := c.doBytes(ctx, http.MethodGet, "/v1/sessions/"+url.PathEscape(id)+"/journal", nil, "", false, true, &raw)
	return raw, err
}

// Import ships a journal stream to the daemon for adoption under id.
// Transport errors are not retried (a duplicate of a success would
// 409), but backpressure rejections still back off inside doBytes.
func (c *Client) Import(ctx context.Context, id string, stream []byte) (ImportResponse, error) {
	var resp ImportResponse
	err := c.doBytes(ctx, http.MethodPost, "/v1/sessions/import?id="+url.QueryEscape(id),
		stream, "application/octet-stream", true, false, &resp)
	return resp, err
}

// Migrate asks the session's current node to move it to the node at
// target (a base URL).
func (c *Client) Migrate(ctx context.Context, id, target string) (MigrateResponse, error) {
	var resp MigrateResponse
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/migrate", MigrateRequest{Target: target}, &resp)
	return resp, err
}

// Ready probes GET /readyz once, no retries: nil means the daemon is
// accepting new work, an *APIError with status 503 means it is
// draining. (The retrying do() would mask exactly the answer health
// probes ask for.)
func (c *Client) Ready(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return c.attempt(ctx, http.MethodGet, c.Base+"/readyz", nil, "", false, nil, httpedge.NewRequestID())
}

// CacheStats fetches the daemon's analysis cache counters.
func (c *Client) CacheStats(ctx context.Context) (CacheStatsResponse, error) {
	var resp CacheStatsResponse
	err := c.do(ctx, http.MethodGet, "/v1/cache", nil, &resp)
	return resp, err
}
