package connect

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lakeguard/internal/arrowipc"
	"lakeguard/internal/plan"
	"lakeguard/internal/proto"
	"lakeguard/internal/types"
)

var clientSeq atomic.Int64

// Client is the Connect protocol client: it holds a session against an
// endpoint and lowers DataFrame operations into serialized plans.
type Client struct {
	baseURL     string
	token       string
	sessionID   string
	workloadEnv string
	timeout     time.Duration
	maxRetries  int
	sleep       func(time.Duration)
	http        *http.Client
	frames      frameBuffer
}

// Dial creates a client with a fresh session id. The client keeps a pool of
// idle connections sized for concurrent in-session queries (the stdlib
// default of 2 idle connections per host churns TCP under parallel load).
func Dial(baseURL, token string) *Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 64
	return &Client{
		baseURL:    baseURL,
		token:      token,
		sessionID:  fmt.Sprintf("sess-%d", clientSeq.Add(1)),
		maxRetries: 3,
		sleep:      time.Sleep,
		http:       &http.Client{Transport: tr},
	}
}

// DialSession attaches with an explicit session id (session resumption).
func DialSession(baseURL, token, sessionID string) *Client {
	c := Dial(baseURL, token)
	c.sessionID = sessionID
	return c
}

// SessionID returns the client's session id.
func (c *Client) SessionID() string { return c.sessionID }

// SetWorkloadEnv pins all subsequent executions to a versioned Workload
// Environment (paper §6.3). Empty selects the server default.
func (c *Client) SetWorkloadEnv(env string) { c.workloadEnv = env }

// SetTimeout bounds every subsequent execution's server-side wall-clock
// time: the deadline travels with the request and propagates through the
// backend into sandbox crossings and eFGAC submissions (0 = no deadline).
func (c *Client) SetTimeout(d time.Duration) { c.timeout = d }

// SetMaxRetries bounds how many times an execution is retried after the
// server sheds it with 429 Too Many Requests (0 = fail fast, default 3).
func (c *Client) SetMaxRetries(n int) {
	if n < 0 {
		n = 0
	}
	c.maxRetries = n
}

func (c *Client) newRequest(method, path string, body []byte) (*http.Request, error) {
	req, err := http.NewRequest(method, c.baseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+c.token)
	req.Header.Set("X-Session-Id", c.sessionID)
	if c.timeout > 0 {
		req.Header.Set(TimeoutHeader, strconv.FormatInt(c.timeout.Milliseconds(), 10))
	}
	return req, nil
}

// OverloadedError reports that the server shed the request under multi-tenant
// admission control (HTTP 429). RetryAfter is the server's backoff hint.
type OverloadedError struct {
	RetryAfter time.Duration
	Msg        string
}

func (e *OverloadedError) Error() string { return e.Msg }

func decodeHTTPError(resp *http.Response) error {
	var payload struct {
		Error string `json:"error"`
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	msg := fmt.Sprintf("connect: HTTP %d", resp.StatusCode)
	if json.Unmarshal(data, &payload) == nil && payload.Error != "" {
		msg = payload.Error
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		return &OverloadedError{RetryAfter: retryAfterHint(resp), Msg: msg}
	}
	return errors.New(msg)
}

// retryAfterHint reads the shed backoff hint, preferring the millisecond
// header over the seconds-granularity standard one.
func retryAfterHint(resp *http.Response) time.Duration {
	if v := resp.Header.Get(RetryAfterMillisHeader); v != "" {
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil && ms > 0 {
			return time.Duration(ms) * time.Millisecond
		}
	}
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.ParseInt(v, 10, 64); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 100 * time.Millisecond
}

// backoffFor turns a server Retry-After hint into a jittered sleep for the
// given retry attempt (0-based): exponential growth capped at 2s, with the
// upper half randomized so synchronized clients do not re-stampede.
func backoffFor(hint time.Duration, attempt int) time.Duration {
	d := hint << uint(attempt)
	if max := 2 * time.Second; d > max || d <= 0 {
		d = 2 * time.Second
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// ExecutePlan sends a root plan and collects the streamed result. If the
// stream is interrupted mid-read, the client reattaches to the operation and
// resumes from the last received batch. A request shed by admission control
// (429) is retried with jittered exponential backoff up to SetMaxRetries
// times, honoring the server's Retry-After hint.
func (c *Client) ExecutePlan(pl *proto.Plan) (*types.Batch, error) {
	if pl.WorkloadEnv == "" {
		pl.WorkloadEnv = c.workloadEnv
	}
	body, err := proto.EncodeRootPlan(pl)
	if err != nil {
		return nil, err
	}
	for attempt := 0; ; attempt++ {
		batch, err := c.executePlanOnce(body)
		var oe *OverloadedError
		if err == nil || !errors.As(err, &oe) || attempt >= c.maxRetries {
			return batch, err
		}
		c.sleep(backoffFor(oe.RetryAfter, attempt))
	}
}

func (c *Client) executePlanOnce(body []byte) (*types.Batch, error) {
	req, err := c.newRequest(http.MethodPost, "/v1/execute", body)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// Only a held answer names an operation: release it on every exit. A
	// failure or a self-released one-frame answer holds nothing, so it
	// costs this one round trip and cannot be reattached.
	opID := resp.Header.Get("X-Operation-Id")
	defer c.release(opID)
	if resp.StatusCode != http.StatusOK {
		return nil, decodeHTTPError(resp)
	}
	batch, frames, streamErr := c.frames.drain(resp.Body)
	if streamErr == nil {
		return batch, nil
	}
	if opID == "" {
		return nil, streamErr
	}
	// Reattach once from the first frame not received (idle-connection
	// termination tolerance, §3.2.2).
	rest, _, err := c.reattach(opID, frames)
	if err != nil {
		return nil, fmt.Errorf("connect: stream interrupted (%v) and reattach failed: %w", streamErr, err)
	}
	if batch == nil || batch.NumRows() == 0 {
		return rest, nil
	}
	return arrowipc.ConcatBatches(batch.Schema, []*types.Batch{batch, rest})
}

func (c *Client) reattach(opID string, start int) (*types.Batch, int, error) {
	req, err := c.newRequest(http.MethodGet,
		"/v1/reattach?operation="+opID+"&start="+strconv.Itoa(start), nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, decodeHTTPError(resp)
	}
	return c.frames.drain(resp.Body)
}

func (c *Client) release(opID string) {
	if opID == "" {
		return
	}
	req, err := c.newRequest(http.MethodPost, "/v1/release?operation="+opID, nil)
	if err != nil {
		return
	}
	if resp, err := c.http.Do(req); err == nil {
		resp.Body.Close()
	}
}

// frameBuffer is the buffer a Client's drains read stream frames into, kept
// from one drain to the next, reattach drains included. A drain takes the
// buffer, so a concurrent drain reads into a fresh one, and the larger comes
// back: a Client holds one buffer, as large as the largest stream it drained.
type frameBuffer struct {
	mu  sync.Mutex
	buf []byte
}

// drain decodes an arrowipc stream into one batch, which shares no memory
// with the buffer. On an interrupted stream it returns the batch of the
// frames received whole (nil when the schema never arrived), how many there
// were, and the error.
func (fb *frameBuffer) drain(r io.Reader) (b *types.Batch, frames int, err error) {
	fb.mu.Lock()
	buf := fb.buf
	fb.buf = nil
	fb.mu.Unlock()
	rd, err := arrowipc.NewReaderBuffer(r, buf)
	if err == nil {
		b, frames, err = rd.Drain()
		buf = rd.Buffer()
	}
	fb.mu.Lock()
	if cap(buf) > cap(fb.buf) {
		fb.buf = buf
	}
	fb.mu.Unlock()
	return b, frames, err
}

// AnalyzePlan returns the schema and (redacted) EXPLAIN text of a relation.
func (c *Client) AnalyzePlan(rel plan.Node) (*types.Schema, string, error) {
	return c.analyzePlan("/v1/analyze", rel)
}

// AnalyzePlanVerified returns the schema and the sentinel-annotated EXPLAIN
// showing which static security invariant cleared each policy operator.
func (c *Client) AnalyzePlanVerified(rel plan.Node) (*types.Schema, string, error) {
	return c.analyzePlan("/v1/analyzeVerified", rel)
}

func (c *Client) analyzePlan(path string, rel plan.Node) (*types.Schema, string, error) {
	body, err := proto.EncodePlan(rel)
	if err != nil {
		return nil, "", err
	}
	req, err := c.newRequest(http.MethodPost, path, body)
	if err != nil {
		return nil, "", err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, "", decodeHTTPError(resp)
	}
	var payload struct {
		Fields []struct {
			Name     string `json:"name"`
			Kind     uint8  `json:"kind"`
			Nullable bool   `json:"nullable"`
		} `json:"fields"`
		Explain string `json:"explain"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		return nil, "", err
	}
	schema := &types.Schema{}
	for _, f := range payload.Fields {
		schema.Fields = append(schema.Fields, types.Field{
			Name: f.Name, Kind: types.Kind(f.Kind), Nullable: f.Nullable,
		})
	}
	return schema, payload.Explain, nil
}

// ExplainAnalyze executes a plan with profiling enabled and returns the
// annotated operator tree (per-operator wall time, rows, batches, and
// vectorized-vs-row-fallback counts) plus the result row count.
func (c *Client) ExplainAnalyze(pl *proto.Plan) (analyze string, rows int, err error) {
	body, err := proto.EncodeRootPlan(pl)
	if err != nil {
		return "", 0, err
	}
	req, err := c.newRequest(http.MethodPost, "/v1/executeAnalyze", body)
	if err != nil {
		return "", 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", 0, decodeHTTPError(resp)
	}
	var payload struct {
		Analyze string `json:"analyze"`
		Rows    int    `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		return "", 0, err
	}
	return payload.Analyze, payload.Rows, nil
}

// Close ends the session server-side.
func (c *Client) Close() error {
	req, err := c.newRequest(http.MethodPost, "/v1/closeSession", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// --- convenience entry points ---

// Sql builds a DataFrame over a SQL query (composable relation).
func (c *Client) Sql(query string) *DataFrame {
	return &DataFrame{client: c, node: &plan.SQLRelation{Query: query}}
}

// Table builds a DataFrame over a catalog table or view ("t", "schema.t",
// or "catalog.schema.t").
func (c *Client) Table(name string) *DataFrame {
	return &DataFrame{client: c, node: plan.NewUnresolvedRelation(strings.Split(name, ".")...)}
}

// CreateDataFrame builds a DataFrame from local rows.
func (c *Client) CreateDataFrame(schema *types.Schema, rows [][]types.Value) *DataFrame {
	bb := types.NewBatchBuilder(schema, len(rows))
	for _, r := range rows {
		bb.AppendRow(r)
	}
	return &DataFrame{client: c, node: &plan.LocalRelation{Data: bb.Build()}}
}

// SqlExplainAnalyze executes a SQL query with EXPLAIN ANALYZE profiling and
// returns the annotated operator tree plus the result row count.
func (c *Client) SqlExplainAnalyze(query string) (analyze string, rows int, err error) {
	return c.ExplainAnalyze(&proto.Plan{Relation: &plan.SQLRelation{Query: query}})
}

// ExecSQL runs a SQL statement as a command (DDL, DML, GRANT...).
func (c *Client) ExecSQL(statement string) (*types.Batch, error) {
	return c.ExecutePlan(&proto.Plan{Command: &proto.Command{SQL: statement}})
}

// RegisterFunction registers a session-scoped PyLite UDF owned by the
// session user.
func (c *Client) RegisterFunction(name string, params []types.Field, returns types.Kind, body string) error {
	return c.RegisterResourceFunction(name, params, returns, "", body)
}

// RegisterResourceFunction registers a session UDF that must execute in a
// specialized environment (e.g. "gpu") — paper §3.3.
func (c *Client) RegisterResourceFunction(name string, params []types.Field, returns types.Kind, resources, body string) error {
	_, err := c.ExecutePlan(&proto.Plan{Command: &proto.Command{
		RegisterFunction: &proto.RegisterFunction{Name: name, Params: params, Returns: returns, Body: body, Resources: resources},
	}})
	return err
}
