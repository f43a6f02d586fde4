package connect

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"lakeguard/internal/admission"
	"lakeguard/internal/arrowipc"
	"lakeguard/internal/audit"
	"lakeguard/internal/proto"
	"lakeguard/internal/telemetry"
	"lakeguard/internal/types"
)

// Backend executes decoded plans. Implemented by the Lakeguard core (single
// cluster) and by the serverless gateway (fleet routing).
type Backend interface {
	// Execute runs a root plan for (session, user) and returns the result
	// schema and batches. ctx carries the caller's deadline into sandbox
	// crossings and remote execution.
	Execute(ctx context.Context, sessionID, user string, pl *proto.Plan) (*types.Schema, []*types.Batch, error)
	// Explain takes a query plan through the same governance gates as
	// Execute and returns, instead of its rows, the result schema and the
	// rendering mode selects. rows is the result row count under
	// ExplainAnalyze and 0 otherwise.
	Explain(ctx context.Context, sessionID, user string, pl *proto.Plan, mode ExplainMode) (schema *types.Schema, text string, rows int, err error)
	// CloseSession releases session state (temp views, sandboxes).
	CloseSession(sessionID string)
}

// ExplainMode selects what Backend.Explain renders.
type ExplainMode int

const (
	// ExplainPlan renders the optimized plan, redacted across SecureView
	// barriers (/v1/analyze).
	ExplainPlan ExplainMode = iota
	// ExplainVerified additionally annotates each policy operator with the
	// sentinel invariants that cleared it (/v1/analyzeVerified, the
	// `--explain-verified` surface).
	ExplainVerified
	// ExplainAnalyze executes the plan and renders its operator profile:
	// wall time, rows, batches, vectorization (/v1/executeAnalyze).
	ExplainAnalyze
)

// Authenticator maps bearer tokens to user identities.
type Authenticator interface {
	Authenticate(token string) (user string, err error)
}

// TokenMap is a static token table (tests and examples).
type TokenMap map[string]string

// Authenticate implements Authenticator.
func (m TokenMap) Authenticate(token string) (string, error) {
	if user, ok := m[token]; ok {
		return user, nil
	}
	return "", errors.New("connect: invalid token")
}

// OperationState tracks a held answer's lifecycle.
type OperationState string

// Operation states.
const (
	OpDone       OperationState = "DONE"
	OpTombstoned OperationState = "TOMBSTONED"
)

// selfReleaseLimit is the largest one-frame answer, in encoded stream bytes,
// that execute sends whole in its response without holding it: such an
// answer registers no operation, so a point read is one HTTP round trip.
// Larger or multi-frame answers are held for reattach until released or
// swept (DESIGN.md §16.5).
const selfReleaseLimit = 64 << 10

// operation is a held answer: a successful execution whose result the
// client may reattach to until it releases it or the sweeper tombstones it.
type operation struct {
	id         string
	sessionID  string
	state      OperationState
	schema     *types.Schema
	batches    []*types.Batch
	lastAccess time.Time
	// tombstonedAt is when SweepIdle tombstoned the operation; the
	// tombstone itself is evicted one further maxAge later.
	tombstonedAt time.Time
}

// session is one live session's activity.
type session struct {
	lastActive time.Time
	// inFlight counts the session's query requests being served; SweepIdle
	// never closes a session that has one.
	inFlight int
}

// Service is the Connect endpoint: it terminates HTTP, authenticates,
// manages sessions and operations, and delegates plan execution to the
// Backend.
type Service struct {
	backend Backend
	auth    Authenticator
	clock   func() time.Time
	// tracer, when set, mints one trace per query request (execute and the
	// three EXPLAIN endpoints); the trace ID is echoed to the client in the
	// X-Trace-Id response header.
	tracer *telemetry.Tracer
	// admit, when set, gates every query request (execute and the three
	// EXPLAIN endpoints) behind the multi-tenant admission controller (nil
	// admits everything).
	admit *admission.Controller
	// auditLog, when set, records one ADMISSION_SHED event per shed request.
	auditLog *audit.Log

	mu         sync.Mutex
	operations map[string]*operation
	sessions   map[string]*session
	opSeq      int64
}

// NewService creates a Connect service.
func NewService(backend Backend, auth Authenticator) *Service {
	return &Service{
		backend: backend, auth: auth, clock: time.Now,
		operations: map[string]*operation{},
		sessions:   map[string]*session{},
	}
}

// SetClock overrides the time source (tests).
func (s *Service) SetClock(clock func() time.Time) { s.clock = clock }

// SetTracer enables per-query distributed tracing: each execute or EXPLAIN
// request becomes one trace rooted at the service entry.
func (s *Service) SetTracer(t *telemetry.Tracer) { s.tracer = t }

// SetAdmission gates query execution behind a multi-tenant admission
// controller: shed requests are rejected with 429 + Retry-After before any
// backend work — no plan decode, no sandbox slot, no storage I/O.
func (s *Service) SetAdmission(c *admission.Controller) { s.admit = c }

// SetAudit records admission shed decisions (one ADMISSION_SHED event each)
// on the given audit log.
func (s *Service) SetAudit(log *audit.Log) { s.auditLog = log }

// RetryAfterMillisHeader carries the shed Retry-After hint at millisecond
// precision alongside the standard seconds-granularity Retry-After header.
const RetryAfterMillisHeader = "X-Retry-After-Millis"

// admitRequest runs the admission controller for one request. On a shed it
// writes the 429 response (Retry-After + X-Retry-After-Millis) and audits the
// decision exactly once; on a queue timeout or injected admission fault it
// writes 503. The caller must stop when err != nil and Release the returned
// ticket when done otherwise.
func (s *Service) admitRequest(ctx context.Context, w http.ResponseWriter, sessionID, user string) (*admission.Ticket, error) {
	ticket, err := s.admit.Acquire(ctx, user)
	if err == nil {
		return ticket, nil
	}
	var oe *admission.OverloadedError
	if errors.As(err, &oe) {
		if s.auditLog != nil {
			s.auditLog.Record(audit.Event{
				User: user, SessionID: sessionID, Action: "ADMISSION_SHED",
				Securable: "gateway", Decision: audit.DecisionDeny,
				Reason:  fmt.Sprintf("%s (retry after %v)", oe.Reason, oe.RetryAfter),
				TraceID: telemetry.TraceIDFrom(ctx),
			})
		}
		secs := int64(oe.RetryAfter+time.Second-1) / int64(time.Second)
		if secs < 1 {
			secs = 1
		}
		ms := oe.RetryAfter.Milliseconds()
		if ms < 1 {
			ms = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		w.Header().Set(RetryAfterMillisHeader, strconv.FormatInt(ms, 10))
		writeError(w, http.StatusTooManyRequests, err)
		return nil, err
	}
	writeError(w, http.StatusServiceUnavailable, err)
	return nil, err
}

// Handler returns the HTTP handler implementing the protocol.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/execute", s.query(s.execute))
	for path, mode := range map[string]ExplainMode{
		"/v1/executeAnalyze":  ExplainAnalyze,
		"/v1/analyze":         ExplainPlan,
		"/v1/analyzeVerified": ExplainVerified,
	} {
		mux.HandleFunc(path, s.query(func(q *request) { s.explain(q, mode) }))
	}
	mux.HandleFunc("/v1/reattach", s.handleReattach)
	mux.HandleFunc("/v1/release", s.handleRelease)
	mux.HandleFunc("/v1/closeSession", s.handleCloseSession)
	return mux
}

func (s *Service) authenticate(r *http.Request) (user, sessionID string, err error) {
	token := strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
	if token == "" {
		return "", "", errors.New("connect: missing bearer token")
	}
	user, err = s.auth.Authenticate(token)
	if err != nil {
		return "", "", err
	}
	sessionID = r.Header.Get("X-Session-Id")
	if sessionID == "" {
		return "", "", errors.New("connect: missing X-Session-Id")
	}
	// Sessions are bound to the authenticating user: one user cannot attach
	// to another user's session id, because session state keys include the
	// user identity.
	return user, user + "/" + sessionID, nil
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// request is one authenticated, admitted query request.
type request struct {
	w               http.ResponseWriter
	user, sessionID string
	// ctx is bound to the client connection and the TimeoutHeader deadline,
	// and carries the trace and the admission queue wait.
	ctx  context.Context
	root *telemetry.Span
	body []byte
}

// query wraps a query endpoint in the prelude every one of them shares:
// authenticate, enter the session, derive the deadline-bound context, start
// the trace, pass admission, read the bounded body. Admission runs before
// the body is even read: a shed request costs microseconds and never touches
// the plan decoder or a sandbox slot. The admission slot is held, and the
// session counts the request in flight, until handle returns.
func (s *Service) query(handle func(q *request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		user, sessionID, err := s.authenticate(r)
		if err != nil {
			writeError(w, http.StatusUnauthorized, err)
			return
		}
		sess := s.enterSession(sessionID)
		defer s.leaveSession(sess)
		ctx, cancel := requestContext(r)
		defer cancel()
		q := &request{w: w, user: user, sessionID: sessionID, ctx: ctx}
		if s.tracer != nil {
			// The root span covers the whole server-side request; its ID is
			// echoed so clients can correlate with /debug/queries and the
			// audit log.
			q.ctx, q.root = s.tracer.StartTrace(q.ctx, "query")
			q.root.SetAttr("user", user)
			q.root.SetAttr("session", sessionID)
			w.Header().Set("X-Trace-Id", q.root.TraceID())
		}
		ticket, err := s.admitRequest(q.ctx, w, sessionID, user)
		if err != nil {
			q.root.EndErr(err)
			return
		}
		defer ticket.Release()
		if qw := ticket.QueueWait(); qw > 0 {
			q.ctx = telemetry.ContextWithQueueWait(q.ctx, qw)
		}
		if q.body, err = io.ReadAll(io.LimitReader(r.Body, 64<<20)); err != nil {
			q.fail(err)
			return
		}
		handle(q)
	}
}

// enterSession touches the session, creating it on first use, and counts
// one more request in flight on it.
func (s *Service) enterSession(id string) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessions[id]
	if sess == nil {
		sess = &session{}
		s.sessions[id] = sess
	}
	sess.lastActive = s.clock()
	sess.inFlight++
	return sess
}

// leaveSession ends a request enterSession counted: the session idles from
// now, not from when the request arrived.
func (s *Service) leaveSession(sess *session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess.lastActive = s.clock()
	sess.inFlight--
}

// fail ends the trace with err and writes it as a bad request.
func (q *request) fail(err error) {
	q.root.EndErr(err)
	writeError(q.w, http.StatusBadRequest, err)
}

// execute runs the statement and only then decides whether its answer is
// held. A failure is written as an error and holds nothing. An answer with
// at most one non-empty batch, encoded in at most selfReleaseLimit bytes,
// goes out whole and holds nothing either. Any other answer is registered
// as an operation, named in X-Operation-Id, for reattach and release.
func (s *Service) execute(q *request) {
	pl, err := proto.DecodeRootPlan(q.body)
	if err != nil {
		q.fail(err)
		return
	}
	schema, batches, err := s.backend.Execute(q.ctx, q.sessionID, q.user, pl)
	q.root.EndErr(err)
	if err != nil {
		writeError(q.w, http.StatusBadRequest, err)
		return
	}
	if schema == nil {
		schema = &types.Schema{}
	}
	if b := selfReleasing(schema, batches); b != nil {
		writeSelfReleased(q.w, b)
		return
	}
	s.mu.Lock()
	s.opSeq++
	op := &operation{
		id:         fmt.Sprintf("op-%d", s.opSeq),
		sessionID:  q.sessionID,
		state:      OpDone,
		schema:     schema,
		batches:    batches,
		lastAccess: s.clock(),
	}
	s.operations[op.id] = op
	s.mu.Unlock()

	q.w.Header().Set("X-Operation-Id", op.id)
	streamBatches(q.w, schema, batches)
}

// selfReleasing returns the answer as the one batch execute sends without
// holding it, labelled with the answer's schema as the held stream's schema
// frame would label it, or nil when the answer must be held: it has two
// non-empty batches, a batch whose schema differs, or more than
// selfReleaseLimit encoded bytes. An answer with no rows is one empty batch.
func selfReleasing(schema *types.Schema, batches []*types.Batch) *types.Batch {
	var one *types.Batch
	for _, b := range batches {
		if !b.Schema.Equal(schema) {
			return nil
		}
		if b.NumRows() == 0 {
			continue
		}
		if one != nil {
			return nil
		}
		one = b
	}
	switch {
	case one == nil:
		one = types.NewBatchBuilder(schema, 0).Build()
	case one.Schema != schema:
		one = &types.Batch{Schema: schema, Cols: one.Cols}
	}
	if arrowipc.EncodedLen(one) > selfReleaseLimit {
		return nil
	}
	return one
}

// writeSelfReleased writes b's stream as one exact buffer behind its
// Content-Length. A response cut short of that length fails the client's
// read, so a self-released answer is never taken for a shorter one.
func writeSelfReleased(w http.ResponseWriter, b *types.Batch) {
	data, err := arrowipc.EncodeBatch(b)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-lakeguard-arrow")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
}

// explain serves the three EXPLAIN endpoints. /v1/executeAnalyze takes a
// root plan and answers with the profile and row count; /v1/analyze and
// /v1/analyzeVerified take a relation and answer with its schema and plan.
func (s *Service) explain(q *request, mode ExplainMode) {
	pl := &proto.Plan{}
	var err error
	if mode == ExplainAnalyze {
		pl, err = proto.DecodeRootPlan(q.body)
	} else {
		pl.Relation, err = proto.DecodePlan(q.body)
	}
	if err != nil {
		q.fail(err)
		return
	}
	schema, text, rows, err := s.backend.Explain(q.ctx, q.sessionID, q.user, pl, mode)
	q.root.EndErr(err)
	if err != nil {
		writeError(q.w, http.StatusBadRequest, err)
		return
	}
	q.w.Header().Set("Content-Type", "application/json")
	if mode == ExplainAnalyze {
		_ = json.NewEncoder(q.w).Encode(struct {
			Analyze string `json:"analyze"`
			Rows    int    `json:"rows"`
		}{Analyze: text, Rows: rows})
		return
	}
	type fieldJSON struct {
		Name     string `json:"name"`
		Kind     uint8  `json:"kind"`
		Nullable bool   `json:"nullable"`
	}
	resp := struct {
		Fields  []fieldJSON `json:"fields"`
		Explain string      `json:"explain"`
	}{Explain: text}
	for _, f := range schema.Fields {
		resp.Fields = append(resp.Fields, fieldJSON{Name: f.Name, Kind: uint8(f.Kind), Nullable: f.Nullable})
	}
	_ = json.NewEncoder(q.w).Encode(resp)
}

// TimeoutHeader carries the client's per-query deadline in milliseconds; the
// service turns it into a context deadline flowing through the backend into
// sandbox crossings and eFGAC submissions.
const TimeoutHeader = "X-Timeout-Millis"

// requestContext derives the execution context from the HTTP request: the
// connection's own context (client disappearance) plus the optional
// TimeoutHeader deadline.
func requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	if v := r.Header.Get(TimeoutHeader); v != "" {
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil && ms > 0 {
			return context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
		}
	}
	return context.WithCancel(ctx)
}

// streamBatches writes an arrowipc stream of schema and batches.
func streamBatches(w http.ResponseWriter, schema *types.Schema, batches []*types.Batch) {
	w.Header().Set("Content-Type", "application/x-lakeguard-arrow")
	wr, err := arrowipc.NewWriter(w, schema)
	if err != nil {
		return
	}
	for _, b := range batches {
		if err := wr.WriteBatch(b); err != nil {
			return
		}
	}
	_ = wr.Close()
}

func (s *Service) handleReattach(w http.ResponseWriter, r *http.Request) {
	_, sessionID, err := s.authenticate(r)
	if err != nil {
		writeError(w, http.StatusUnauthorized, err)
		return
	}
	opID := r.URL.Query().Get("operation")
	start, _ := strconv.Atoi(r.URL.Query().Get("start"))
	s.mu.Lock()
	op := s.operations[opID]
	var held operation
	if op != nil {
		op.lastAccess = s.clock()
		held = *op
	}
	s.mu.Unlock()
	switch {
	case op == nil:
		writeError(w, http.StatusNotFound, fmt.Errorf("connect: unknown operation %q", opID))
		return
	case held.sessionID != sessionID:
		// Cross-session operation access is an isolation violation.
		writeError(w, http.StatusForbidden, errors.New("connect: operation belongs to another session"))
		return
	case held.state == OpTombstoned:
		writeError(w, http.StatusGone, errors.New("connect: operation tombstoned after client disappeared"))
		return
	case start < 0 || start > len(held.batches):
		writeError(w, http.StatusBadRequest, fmt.Errorf("connect: invalid start %d", start))
		return
	}
	w.Header().Set("X-Operation-Id", held.id)
	streamBatches(w, held.schema, held.batches[start:])
}

func (s *Service) handleRelease(w http.ResponseWriter, r *http.Request) {
	_, sessionID, err := s.authenticate(r)
	if err != nil {
		writeError(w, http.StatusUnauthorized, err)
		return
	}
	opID := r.URL.Query().Get("operation")
	s.mu.Lock()
	if op := s.operations[opID]; op != nil && op.sessionID == sessionID {
		delete(s.operations, opID)
	}
	s.mu.Unlock()
	w.WriteHeader(http.StatusOK)
}

func (s *Service) handleCloseSession(w http.ResponseWriter, r *http.Request) {
	_, sessionID, err := s.authenticate(r)
	if err != nil {
		writeError(w, http.StatusUnauthorized, err)
		return
	}
	s.mu.Lock()
	delete(s.sessions, sessionID)
	for id, op := range s.operations {
		if op.sessionID == sessionID {
			delete(s.operations, id)
		}
	}
	s.mu.Unlock()
	s.backend.CloseSession(sessionID)
	w.WriteHeader(http.StatusOK)
}

// SweepIdle tombstones operations and closes sessions idle longer than
// maxAge — the lifecycle management §3.2.3 describes (abandon and tombstone
// executions whose clients disappeared). A session with a request in flight
// is never idle. The operations of a closed session are tombstoned with it.
// A tombstone answers reattach with 410 Gone for one further maxAge and is
// then evicted, so the operation table stays bounded by the operations of
// the last two maxAge windows. It returns how many operations were
// tombstoned and sessions closed.
func (s *Service) SweepIdle(maxAge time.Duration) (ops, sessions int) {
	now := s.clock()
	closed := map[string]bool{}
	s.mu.Lock()
	for id, sess := range s.sessions {
		if sess.inFlight == 0 && now.Sub(sess.lastActive) > maxAge {
			delete(s.sessions, id)
			closed[id] = true
		}
	}
	for id, op := range s.operations {
		switch {
		case op.state == OpTombstoned:
			if now.Sub(op.tombstonedAt) > maxAge {
				delete(s.operations, id)
			}
		case now.Sub(op.lastAccess) > maxAge || closed[op.sessionID]:
			op.state = OpTombstoned
			op.tombstonedAt = now
			op.batches = nil // free buffered results
			ops++
		}
	}
	s.mu.Unlock()
	for id := range closed {
		s.backend.CloseSession(id)
	}
	return ops, len(closed)
}

// StartSweeper runs SweepIdle on a fixed interval until the returned stop
// function is called (production servers run one per endpoint).
func (s *Service) StartSweeper(interval, maxAge time.Duration) (stop func()) {
	done := make(chan struct{})
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				s.SweepIdle(maxAge)
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// OperationStateOf reports an operation's state (test/diagnostic hook).
func (s *Service) OperationStateOf(opID string) (OperationState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	op, ok := s.operations[opID]
	if !ok {
		return "", false
	}
	return op.state, true
}

// ActiveSessions reports the number of live sessions.
func (s *Service) ActiveSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}
