// Package sandbox implements the user-code isolation layer (paper §3.3). A
// Sandbox is an isolated execution universe for untrusted PyLite code: it
// runs in its own goroutine and is reachable only through a serialized
// message channel — the analog of the container boundary in the paper. The
// engine sends encoded argument batches; the sandbox decodes, interprets,
// and returns encoded results. Nothing else crosses: no engine pointers, no
// catalog, no credentials, no filesystem.
//
// Isolation properties modeled faithfully:
//
//   - Message-passing only: every crossing pays real encode/decode cost
//     (the continuous overhead measured in Table 2).
//   - Cold start: creating a sandbox pays a configurable provisioning delay
//     (the ~2 s first-UDF latency in §5), amortized by warm reuse.
//   - Trust domains: one sandbox executes code of exactly one owner; the
//     dispatcher never co-locates code from different owners.
//   - Egress control: outbound HTTP is gated by an allow-list, the analog of
//     the paper's dynamically controlled network namespace rules.
//   - Failure containment: a crash or hang inside the interpreter burns this
//     sandbox only. The crossing returns a structured SandboxCrashError, the
//     sandbox is poisoned (never reused), and the supervised dispatcher
//     quarantines it — user code must never wedge or kill the engine.
package sandbox

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lakeguard/internal/arrowipc"
	"lakeguard/internal/faults"
	"lakeguard/internal/telemetry"
	"lakeguard/internal/types"
	"lakeguard/internal/udf"
)

// EgressPolicy controls outbound network access from user code.
type EgressPolicy struct {
	// AllowedHosts lists hostnames user code may reach ("*" allows all).
	AllowedHosts []string
	// Resolver is the simulated external network: it receives the URL and
	// returns the response body. A nil Resolver means the network does not
	// exist (all egress fails even if allowed).
	Resolver func(url string) (string, error)
}

// allows reports whether the policy permits the host.
func (p EgressPolicy) allows(host string) bool {
	for _, h := range p.AllowedHosts {
		if h == "*" || strings.EqualFold(h, host) {
			return true
		}
	}
	return false
}

// Config parametrizes sandbox creation.
type Config struct {
	// ColdStart is the simulated provisioning delay paid once per sandbox.
	ColdStart time.Duration
	// Fuel bounds interpreter steps per UDF invocation (0 = default).
	Fuel int
	// Egress is the network policy for code in this sandbox.
	Egress EgressPolicy
	// ExecTimeout bounds the wall-clock time of one crossing (0 = none).
	// A request that exceeds it is treated as hung user code: the sandbox
	// is killed and the crossing fails with a SandboxCrashError.
	ExecTimeout time.Duration
	// Faults is the chaos-test fault injector (nil in production).
	Faults *faults.Injector
	// RequireVerifiedPlans refuses any crossing whose request does not carry
	// the sentinel fingerprint of a verified plan. The server plane sets it
	// so that even a compromised engine path cannot feed governed argument
	// batches to user code without having passed SENTINEL_VERIFY; direct
	// engine tests and benches leave it false.
	RequireVerifiedPlans bool
}

// UDFSpec describes one user function within a request. ArgCols index into
// the request batch's columns.
type UDFSpec struct {
	Name       string     `json:"name"`
	Body       string     `json:"body"`
	ArgNames   []string   `json:"argNames"`
	ArgCols    []int      `json:"argCols"`
	ResultKind types.Kind `json:"resultKind"`
}

// Request is one crossing into the sandbox: a set of (fused) UDFs and the
// argument batch they read from.
type Request struct {
	Specs []UDFSpec
	Args  *types.Batch
	// PlanFingerprint is the sentinel fingerprint of the sealed, verified
	// plan this crossing serves ("" when the caller executed an unverified
	// plan, e.g. a direct engine test). Sandboxes created with
	// RequireVerifiedPlans refuse crossings without it.
	PlanFingerprint string
}

// ErrUnverifiedPlan is returned when a sandbox that requires verified plans
// receives a crossing with no plan fingerprint: the argument batch did not
// come from a plan that passed SENTINEL_VERIFY.
var ErrUnverifiedPlan = errors.New("sandbox: crossing refused: request carries no verified-plan fingerprint")

// ErrSandboxClosed is returned after Close.
var ErrSandboxClosed = errors.New("sandbox: closed")

// ErrSandboxPoisoned is returned when a crossing is attempted on a sandbox
// that already crashed or timed out; poisoned sandboxes are never reused.
var ErrSandboxPoisoned = errors.New("sandbox: poisoned")

// SandboxCrashError reports that user code destroyed its sandbox — a crash
// inside the interpreter, a hang exceeding ExecTimeout, or an abandoned
// in-flight crossing. The failure burned exactly one sandbox; the engine and
// other trust domains are unaffected (the paper's containment guarantee).
type SandboxCrashError struct {
	SandboxID   string
	TrustDomain string
	Reason      string
	// Timeout distinguishes a wall-clock kill from an in-sandbox crash.
	Timeout bool
	// FaultSite names the injection site when the crash was injected by the
	// chaos harness ("" for organic crashes); telemetry spans record it.
	FaultSite string
}

// Error implements error.
func (e *SandboxCrashError) Error() string {
	mode := "crashed"
	if e.Timeout {
		mode = "timed out"
	}
	return fmt.Sprintf("sandbox: %s (domain %q) %s: %s", e.SandboxID, e.TrustDomain, mode, e.Reason)
}

// Sandbox is one isolated user-code environment.
type Sandbox struct {
	// ID identifies the sandbox for diagnostics.
	ID string
	// TrustDomain is the owner identity whose code this sandbox runs.
	TrustDomain string
	// Resources names the specialized pool this sandbox lives in ("" =
	// standard executors).
	Resources string

	reqCh  chan []byte
	respCh chan sandboxResp
	done   chan struct{}

	closeOnce sync.Once

	// poisoned marks a sandbox whose interpreter crashed, hung, or whose IPC
	// pipe was abandoned mid-request; it must never serve again.
	poisoned     atomic.Bool
	poisonMu     sync.Mutex
	poisonReason string

	execTimeout time.Duration

	// requireVerified refuses crossings without a verified-plan fingerprint.
	requireVerified bool

	// crossings counts boundary round trips (bench instrumentation).
	crossings atomic.Int64
	// rowsProcessed counts rows × UDFs evaluated.
	rowsProcessed atomic.Int64

	// lastTrace remembers the most recent traced crossing so quarantine-time
	// audit events (which have no request context) still join the trace.
	lastTraceMu sync.Mutex
	lastTraceID string

	execMu sync.Mutex
	// reqBuf is the request buffer of the last crossing, reused by the next
	// one (guarded by execMu). It is kept only after a normal response: a
	// killed, poisoned, timed-out or abandoned crossing may leave the
	// interpreter reading it, so its buffer is never written again.
	reqBuf []byte
}

type sandboxResp struct {
	data []byte
	err  string
	// crashed marks a response produced by panic recovery: the interpreter
	// goroutine is dead and the sandbox must be destroyed.
	crashed bool
	// faultSite is the injection site when the failure was injected ("" for
	// organic failures).
	faultSite string
}

var sandboxSeq atomic.Int64

// New provisions a sandbox for one trust domain, paying the cold-start
// delay. The returned sandbox is warm and reusable until Close.
func New(trustDomain string, cfg Config) *Sandbox {
	sb, _ := NewContext(context.Background(), trustDomain, cfg)
	return sb
}

// NewContext is New with cancellation: a caller whose query was abandoned
// does not pay the remaining cold start for a sandbox nobody will use.
func NewContext(ctx context.Context, trustDomain string, cfg Config) (*Sandbox, error) {
	_, sp := telemetry.StartSpan(ctx, "sandbox.coldstart")
	sp.SetAttr("domain", trustDomain)
	sb, err := newContext(ctx, trustDomain, cfg)
	if err != nil {
		if site := faults.SiteOf(err); site != "" {
			sp.SetAttr("fault.site", site)
		}
	} else {
		sp.SetAttr("sandbox", sb.ID)
	}
	sp.EndErr(err)
	return sb, err
}

func newContext(ctx context.Context, trustDomain string, cfg Config) (*Sandbox, error) {
	if err := cfg.Faults.CheckContext(ctx, faults.SiteSandboxColdStart); err != nil {
		return nil, fmt.Errorf("sandbox: provisioning for %q: %w", trustDomain, err)
	}
	if cfg.ColdStart > 0 {
		t := time.NewTimer(cfg.ColdStart)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, fmt.Errorf("sandbox: cold start for %q abandoned: %w", trustDomain, ctx.Err())
		}
	}
	s := &Sandbox{
		ID:              fmt.Sprintf("sbx-%d", sandboxSeq.Add(1)),
		TrustDomain:     trustDomain,
		reqCh:           make(chan []byte),
		respCh:          make(chan sandboxResp),
		done:            make(chan struct{}),
		execTimeout:     cfg.ExecTimeout,
		requireVerified: cfg.RequireVerifiedPlans,
	}
	fuel := cfg.Fuel
	if fuel <= 0 {
		fuel = udf.DefaultFuel
	}
	go runInterpreterLoop(s.reqCh, s.respCh, s.done, fuel, cfg.Egress, cfg.Faults)
	return s, nil
}

// Close tears the sandbox down.
func (s *Sandbox) Close() {
	s.closeOnce.Do(func() { close(s.done) })
}

// Poisoned reports whether the sandbox crashed or timed out and must not be
// reused.
func (s *Sandbox) Poisoned() bool { return s.poisoned.Load() }

// PoisonReason returns why the sandbox was poisoned ("" if healthy).
func (s *Sandbox) PoisonReason() string {
	s.poisonMu.Lock()
	defer s.poisonMu.Unlock()
	return s.poisonReason
}

// Crossings reports how many boundary round trips this sandbox served.
func (s *Sandbox) Crossings() int64 { return s.crossings.Load() }

// LastTraceID returns the trace ID of the most recent traced crossing (""
// if the sandbox never served a traced request).
func (s *Sandbox) LastTraceID() string {
	s.lastTraceMu.Lock()
	defer s.lastTraceMu.Unlock()
	return s.lastTraceID
}

func (s *Sandbox) setLastTrace(id string) {
	s.lastTraceMu.Lock()
	s.lastTraceID = id
	s.lastTraceMu.Unlock()
}

// RowsProcessed reports rows × UDF evaluations served.
func (s *Sandbox) RowsProcessed() int64 { return s.rowsProcessed.Load() }

// kill poisons the sandbox, tears it down, and returns the structured crash
// error the caller surfaces. faultSite attributes an injected failure ("").
func (s *Sandbox) kill(reason string, timeout bool, faultSite string) error {
	s.poisonMu.Lock()
	if s.poisonReason == "" {
		s.poisonReason = reason
	}
	s.poisonMu.Unlock()
	s.poisoned.Store(true)
	s.Close()
	return &SandboxCrashError{SandboxID: s.ID, TrustDomain: s.TrustDomain, Reason: reason, Timeout: timeout, FaultSite: faultSite}
}

// Execute performs one crossing: the request is serialized, handed to the
// isolated interpreter loop, and the serialized results are decoded. The
// result batch has one column per spec, in order.
//
// Supervision semantics: a context cancelled before the request crosses the
// boundary returns ctx.Err() and leaves the sandbox healthy. Once the
// request is in flight, abandoning it (cancellation or ExecTimeout) makes
// the single IPC pipe unsynchronizable, so the sandbox is destroyed — the
// moral equivalent of killing a container whose workload hung.
func (s *Sandbox) Execute(ctx context.Context, req *Request) (*types.Batch, error) {
	var out *types.Batch
	err := s.ExecuteInto(ctx, req, func(stream []byte) (err error) {
		out, err = arrowipc.DecodeBatch(stream)
		return err
	})
	return out, err
}

// ExecuteInto performs one crossing like Execute, but hands the result, as
// the arrowipc stream the sandbox encoded, to decode. decode runs while the
// crossing still holds the sandbox's pipe: the stream is the sandbox's own
// buffer, valid only until decode returns. A caller that splits one batch
// across sandboxes decodes each partition's stream into one result batch
// with an arrowipc.Assembly.
func (s *Sandbox) ExecuteInto(ctx context.Context, req *Request, decode func(stream []byte) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	_, sp := telemetry.StartSpan(ctx, "sandbox.execute")
	sp.SetAttr("sandbox", s.ID)
	sp.SetAttr("domain", s.TrustDomain)
	if tid := sp.TraceID(); tid != "" {
		s.setLastTrace(tid)
	}
	sp.Count("rows", int64(req.Args.NumRows()))
	err := s.execute(ctx, req, decode)
	if err != nil {
		var crash *SandboxCrashError
		if errors.As(err, &crash) {
			sp.SetAttr("crash", crash.Reason)
			if crash.FaultSite != "" {
				sp.SetAttr("fault.site", crash.FaultSite)
			}
		} else if site := faults.SiteOf(err); site != "" {
			sp.SetAttr("fault.site", site)
		}
	}
	sp.EndErr(err)
	return err
}

func (s *Sandbox) execute(ctx context.Context, req *Request, decode func([]byte) error) error {
	if s.requireVerified && req.PlanFingerprint == "" {
		return fmt.Errorf("%w: sandbox %s (domain %q)", ErrUnverifiedPlan, s.ID, s.TrustDomain)
	}
	for _, spec := range req.Specs {
		if len(spec.ArgCols) != len(spec.ArgNames) {
			return fmt.Errorf("sandbox: spec %q has %d arg columns for %d parameters",
				spec.Name, len(spec.ArgCols), len(spec.ArgNames))
		}
		for _, c := range spec.ArgCols {
			if c < 0 || c >= req.Args.NumCols() {
				return fmt.Errorf("sandbox: spec %q references column %d outside batch", spec.Name, c)
			}
		}
	}

	// One logical IPC channel: requests are serialized (a container boundary
	// has one pipe), concurrent executors queue here.
	s.execMu.Lock()
	defer s.execMu.Unlock()

	if s.poisoned.Load() {
		return fmt.Errorf("%w: %s (%s)", ErrSandboxPoisoned, s.ID, s.PoisonReason())
	}
	// The buffer goes back to s.reqBuf only after a normal response.
	payload, err := appendRequest(s.reqBuf, req)
	s.reqBuf = nil
	if err != nil {
		return err
	}

	var timeoutC <-chan time.Time
	if s.execTimeout > 0 {
		timer := time.NewTimer(s.execTimeout)
		defer timer.Stop()
		timeoutC = timer.C
	}

	// Go picks at random among ready select cases, so an already-cancelled
	// context must be refused here: otherwise the send below can still win,
	// and the second select then poisons the sandbox over a request its
	// caller had abandoned before it crossed.
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case s.reqCh <- payload:
	case <-s.done:
		return ErrSandboxClosed
	case <-ctx.Done():
		// Nothing crossed the boundary yet; the sandbox stays healthy.
		return ctx.Err()
	case <-timeoutC:
		return s.kill(fmt.Sprintf("request not accepted within ExecTimeout %v", s.execTimeout), true, "")
	}
	var resp sandboxResp
	select {
	case resp = <-s.respCh:
	case <-s.done:
		return ErrSandboxClosed
	case <-ctx.Done():
		s.kill("in-flight request abandoned: "+ctx.Err().Error(), false, "")
		return ctx.Err()
	case <-timeoutC:
		return s.kill(fmt.Sprintf("user code exceeded ExecTimeout %v", s.execTimeout), true, "")
	}
	s.crossings.Add(1)
	s.rowsProcessed.Add(int64(req.Args.NumRows() * len(req.Specs)))
	if resp.crashed {
		return s.kill("interpreter crashed: "+resp.err, false, resp.faultSite)
	}
	// The interpreter answered, so it no longer reads the request.
	s.reqBuf = payload
	if resp.err != "" {
		return fmt.Errorf("sandbox: user code failed: %s", resp.err)
	}
	return decode(resp.data)
}

// --- wire encoding of requests: JSON header frame + arrowipc payload ---

// maxRequestHeader caps the spec-header frame; anything larger is a corrupt
// or hostile frame, not a legitimate fused-UDF set.
const maxRequestHeader = 1 << 20

// appendRequest writes the request frame into buf, reusing its capacity; a
// buffer too small (nil, say) is replaced by one of the frame's exact size.
func appendRequest(buf []byte, req *Request) ([]byte, error) {
	header, err := json.Marshal(req.Specs)
	if err != nil {
		return nil, err
	}
	if len(header) > maxRequestHeader {
		return nil, fmt.Errorf("sandbox: request header %d bytes exceeds limit %d", len(header), maxRequestHeader)
	}
	size := 4 + len(header) + arrowipc.EncodedLen(req.Args)
	if cap(buf) < size {
		buf = make([]byte, 0, size)
	}
	out := binary.LittleEndian.AppendUint32(buf[:0], uint32(len(header)))
	out = append(out, header...)
	return arrowipc.AppendEncoded(out, req.Args)
}

// runInterpreterLoop is the code that lives "inside" the sandbox. It
// deliberately closes over nothing but its channels, fuel budget, egress
// policy, and fault injector — the entire authority of user code.
func runInterpreterLoop(reqCh <-chan []byte, respCh chan<- sandboxResp, done <-chan struct{}, fuel int, egress EgressPolicy, inj *faults.Injector) {
	caps := &udf.Capabilities{}
	if egress.Resolver != nil && len(egress.AllowedHosts) > 0 {
		resolver := egress.Resolver
		policy := egress
		caps.HTTPGet = func(rawURL string) (string, error) {
			u, err := url.Parse(rawURL)
			if err != nil {
				return "", fmt.Errorf("invalid url %q", rawURL)
			}
			if !policy.allows(u.Hostname()) {
				return "", fmt.Errorf("egress to %q denied by sandbox network policy", u.Hostname())
			}
			return resolver(rawURL)
		}
	}
	in := newInterpreter(caps, fuel)
	for {
		var payload []byte
		select {
		case payload = <-reqCh:
		case <-done:
			return
		}
		resp := interpretOne(payload, in, inj, done)
		select {
		case respCh <- resp:
		case <-done:
			return
		}
		if resp.crashed {
			// The crash killed this universe; no further requests are served.
			return
		}
	}
}

// interpretOne serves one request, converting interpreter panics — real or
// injected — into a structured crash response instead of taking down the
// process: the supervision analog of a container dying alone.
func interpretOne(payload []byte, in *interpreter, inj *faults.Injector, done <-chan struct{}) (resp sandboxResp) {
	defer func() {
		if r := recover(); r != nil {
			resp = sandboxResp{err: fmt.Sprint(r), crashed: true}
			// An injected crash panics with the structured fault error;
			// recover the site so the crossing span can attribute it.
			if e, ok := r.(error); ok {
				resp.faultSite = faults.SiteOf(e)
			}
		}
	}()
	if f, ok := inj.Eval(faults.SiteSandboxInterpret); ok {
		switch f.Kind {
		case faults.KindCrash:
			panic(f.Err)
		case faults.KindHang:
			// A wedge the fuel meter cannot catch: block until teardown.
			<-done
			return sandboxResp{err: "injected hang interrupted by teardown", crashed: true}
		case faults.KindSleep:
			time.Sleep(f.Delay)
		case faults.KindError:
			return sandboxResp{err: f.Err.Error()}
		}
	}
	data, err := in.serve(payload)
	if err != nil {
		return sandboxResp{err: err.Error()}
	}
	return sandboxResp{data: data}
}

// maxCachedSets bounds an interpreter's spec-header cache; a sandbox that
// meets more distinct fused sets than this starts the cache over.
const maxCachedSets = 64

// interpreter is the state the interpreter loop keeps across crossings: the
// fused sets it has bound, keyed by the exact spec-header bytes that named
// them, and the argument columns, result builders and response buffer every
// crossing reuses. Nothing a crossing decodes or builds outlives the encode
// of its response, the engine decodes the response before it sends the next
// request, and the buffers kept are sized by the largest crossing served.
type interpreter struct {
	caps *udf.Capabilities
	fuel int
	sets map[string]*boundSet
	args arrowipc.Decoder
	out  []*types.Builder
	cols []*types.Column
	resp []byte // the response stream, read by the engine before the next request
}

// boundSet is one decoded spec header: its specs, bound once.
type boundSet struct {
	specs  []UDFSpec
	set    *udf.Set
	schema *types.Schema // the result batch's schema
}

func newInterpreter(caps *udf.Capabilities, fuel int) *interpreter {
	return &interpreter{caps: caps, fuel: fuel, sets: map[string]*boundSet{}}
}

// decodeRequest decodes and validates one request frame: its spec header
// (through the cache) and its argument batch (into the reused columns,
// valid until the next decode).
func (in *interpreter) decodeRequest(data []byte) (*boundSet, *types.Batch, error) {
	if len(data) < 4 {
		return nil, nil, errors.New("sandbox: truncated request")
	}
	h := binary.LittleEndian.Uint32(data)
	if h > maxRequestHeader || uint64(h)+4 > uint64(len(data)) {
		return nil, nil, errors.New("sandbox: corrupt request header")
	}
	hlen := int(h)
	header := data[4 : 4+hlen]
	bs, ok := in.sets[string(header)]
	if !ok {
		var err error
		if bs, err = in.bind(header); err != nil {
			return nil, nil, err
		}
		if len(in.sets) >= maxCachedSets {
			clear(in.sets)
		}
		in.sets[string(header)] = bs
	}
	batch, err := in.args.Decode(data[4+hlen:])
	if err != nil {
		return nil, nil, err
	}
	for _, spec := range bs.specs {
		for _, c := range spec.ArgCols {
			if c >= batch.NumCols() {
				return nil, nil, fmt.Errorf("sandbox: spec %q references column %d of a %d-column batch", spec.Name, c, batch.NumCols())
			}
		}
	}
	return bs, batch, nil
}

// bind parses a spec header, checks every spec and binds the set.
func (in *interpreter) bind(header []byte) (*boundSet, error) {
	var specs []UDFSpec
	if err := json.Unmarshal(header, &specs); err != nil {
		return nil, err
	}
	set, err := BindSpecs(specs, in.caps)
	if err != nil {
		return nil, err
	}
	return &boundSet{specs: specs, set: set, schema: ResultSchema(specs)}, nil
}

// BindSpecs checks specs and binds them, in order, as one fused udf.Set
// run with caps. The sandbox binds every spec header it decodes this way,
// and the engine's unisolated baseline binds its UDF groups.
func BindSpecs(specs []UDFSpec, caps *udf.Capabilities) (*udf.Set, error) {
	calls := make([]udf.Call, len(specs))
	for i, spec := range specs {
		if len(spec.ArgCols) != len(spec.ArgNames) {
			return nil, fmt.Errorf("sandbox: spec %q has %d arg columns for %d parameters",
				spec.Name, len(spec.ArgCols), len(spec.ArgNames))
		}
		for _, c := range spec.ArgCols {
			if c < 0 {
				return nil, fmt.Errorf("sandbox: spec %q references column %d", spec.Name, c)
			}
		}
		if !spec.ResultKind.Valid() {
			return nil, fmt.Errorf("sandbox: spec %q has invalid result kind %d", spec.Name, spec.ResultKind)
		}
		p, err := udf.Compile(spec.Body)
		if err != nil {
			return nil, err
		}
		calls[i] = udf.Call{Name: spec.Name, Func: p.Bind(spec.ArgNames), ArgCols: spec.ArgCols, Result: spec.ResultKind}
	}
	return udf.NewSet(calls, caps), nil
}

// ResultSchema is the schema of the batch a crossing of specs answers with:
// one nullable column per spec, named after it, of its result kind.
func ResultSchema(specs []UDFSpec) *types.Schema {
	s := &types.Schema{Fields: make([]types.Field, len(specs))}
	for i, spec := range specs {
		s.Fields[i] = types.Field{Name: spec.Name, Kind: spec.ResultKind, Nullable: true}
	}
	return s
}

// serve runs every spec of one request over its whole argument batch and
// returns the encoded results.
func (in *interpreter) serve(payload []byte) ([]byte, error) {
	bs, args, err := in.decodeRequest(payload)
	if err != nil {
		return nil, err
	}
	n := args.NumRows()
	out := in.builders(bs.schema, n)
	if err := bs.set.Run(args.Cols, n, in.fuel, out); err != nil {
		return nil, err
	}
	in.cols = in.cols[:0]
	for _, b := range out {
		in.cols = append(in.cols, b.Build())
	}
	if in.resp, err = arrowipc.AppendEncoded(in.resp[:0], &types.Batch{Schema: bs.schema, Cols: in.cols}); err != nil {
		return nil, err
	}
	return in.resp, nil
}

// builders returns one empty result builder per field of schema, reusing
// the previous crossing's builder at each position when its kind matches.
func (in *interpreter) builders(schema *types.Schema, n int) []*types.Builder {
	for len(in.out) < schema.Len() {
		in.out = append(in.out, nil)
	}
	out := in.out[:schema.Len()]
	for i, f := range schema.Fields {
		if out[i] == nil || out[i].Kind() != f.Kind {
			out[i] = types.NewBuilder(f.Kind, n)
		} else {
			out[i].Reset(n)
		}
	}
	return out
}
