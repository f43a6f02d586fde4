package sandbox

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"lakeguard/internal/audit"
	"lakeguard/internal/faults"
)

// chaosSeed keeps the suite deterministic; CI overrides via FAULTS_SEED.
func chaosSeed() int64 { return faults.SeedFromEnv(1) }

func TestChaosCrashReturnsStructuredError(t *testing.T) {
	inj := faults.New(chaosSeed()).Add(faults.Rule{Site: faults.SiteSandboxInterpret, Kind: faults.KindCrash, Times: 1})
	sb := New("alice", Config{Faults: inj})
	defer sb.Close()

	_, err := sb.Execute(context.Background(), &Request{Specs: []UDFSpec{sumSpec()}, Args: argBatch(5)})
	var crash *SandboxCrashError
	if !errors.As(err, &crash) {
		t.Fatalf("err = %v, want SandboxCrashError", err)
	}
	if crash.Timeout {
		t.Error("crash misreported as timeout")
	}
	if crash.TrustDomain != "alice" || crash.SandboxID != sb.ID {
		t.Errorf("crash attribution = %+v", crash)
	}
	if !sb.Poisoned() {
		t.Error("crashed sandbox not poisoned")
	}
	if !strings.Contains(sb.PoisonReason(), "crash") {
		t.Errorf("poison reason = %q", sb.PoisonReason())
	}
	// A poisoned sandbox refuses further crossings instead of hanging on a
	// dead interpreter.
	if _, err := sb.Execute(context.Background(), &Request{Specs: []UDFSpec{sumSpec()}, Args: argBatch(1)}); !errors.Is(err, ErrSandboxPoisoned) {
		t.Errorf("second Execute = %v, want ErrSandboxPoisoned", err)
	}
}

func TestChaosHangKilledByExecTimeout(t *testing.T) {
	inj := faults.New(chaosSeed()).Add(faults.Rule{Site: faults.SiteSandboxInterpret, Kind: faults.KindHang, Times: 1})
	sb := New("alice", Config{Faults: inj, ExecTimeout: 30 * time.Millisecond})
	defer sb.Close()

	start := time.Now()
	_, err := sb.Execute(context.Background(), &Request{Specs: []UDFSpec{sumSpec()}, Args: argBatch(1)})
	var crash *SandboxCrashError
	if !errors.As(err, &crash) || !crash.Timeout {
		t.Fatalf("err = %v, want timeout SandboxCrashError", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("hung crossing took %v, supervision failed", elapsed)
	}
	if !sb.Poisoned() {
		t.Error("timed-out sandbox not poisoned")
	}
}

func TestChaosInjectedErrorKeepsSandboxHealthy(t *testing.T) {
	// KindError models failing user code, not a dying container: the sandbox
	// survives and serves the next request.
	inj := faults.New(chaosSeed()).Add(faults.Rule{Site: faults.SiteSandboxInterpret, Kind: faults.KindError, Times: 1})
	sb := New("alice", Config{Faults: inj})
	defer sb.Close()

	if _, err := sb.Execute(context.Background(), &Request{Specs: []UDFSpec{sumSpec()}, Args: argBatch(1)}); err == nil {
		t.Fatal("injected error did not surface")
	}
	if sb.Poisoned() {
		t.Error("error response must not poison the sandbox")
	}
	if _, err := sb.Execute(context.Background(), &Request{Specs: []UDFSpec{sumSpec()}, Args: argBatch(1)}); err != nil {
		t.Fatalf("sandbox dead after injected user error: %v", err)
	}
}

// A call whose context is already cancelled never crosses the boundary. The
// warm interpreter is idle, so its request channel is ready alongside
// ctx.Done(); the calls are repeated because Go picks at random among ready
// select cases, and a single call would pass by luck half of the time.
func TestChaosContextCancelBeforeSendIsClean(t *testing.T) {
	sb := New("alice", Config{})
	defer sb.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 1000; i++ {
		if _, err := sb.Execute(ctx, &Request{Specs: []UDFSpec{sumSpec()}, Args: argBatch(1)}); !errors.Is(err, context.Canceled) {
			t.Fatalf("call %d: err = %v", i, err)
		}
		if sb.Poisoned() {
			t.Fatalf("call %d: pre-send cancellation poisoned the sandbox: %s", i, sb.PoisonReason())
		}
		if n := sb.Crossings(); n != 0 {
			t.Fatalf("call %d: %d cancelled payload(s) crossed the boundary", i, n)
		}
	}
	// The sandbox still works.
	if _, err := sb.Execute(context.Background(), &Request{Specs: []UDFSpec{sumSpec()}, Args: argBatch(1)}); err != nil {
		t.Fatal(err)
	}
}

func TestChaosContextCancelInFlightPoisons(t *testing.T) {
	inj := faults.New(chaosSeed()).Add(faults.Rule{Site: faults.SiteSandboxInterpret, Kind: faults.KindHang, Times: 1})
	sb := New("alice", Config{Faults: inj})
	defer sb.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	if _, err := sb.Execute(ctx, &Request{Specs: []UDFSpec{sumSpec()}, Args: argBatch(1)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	// The request crossed the boundary before being abandoned: the IPC pipe
	// is unsynchronizable, so the sandbox must be destroyed.
	if !sb.Poisoned() {
		t.Error("abandoned in-flight request must poison the sandbox")
	}
}

func TestChaosCloseDuringInFlightExecute(t *testing.T) {
	inj := faults.New(chaosSeed()).Add(faults.Rule{Site: faults.SiteSandboxInterpret, Kind: faults.KindHang, Times: 1})
	sb := New("alice", Config{Faults: inj})
	errC := make(chan error, 1)
	go func() {
		_, err := sb.Execute(context.Background(), &Request{Specs: []UDFSpec{sumSpec()}, Args: argBatch(1)})
		errC <- err
	}()
	time.Sleep(20 * time.Millisecond)
	sb.Close()
	select {
	case err := <-errC:
		if !errors.Is(err, ErrSandboxClosed) {
			t.Fatalf("err = %v, want ErrSandboxClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Execute hung past Close: supervision failed")
	}
}

// crashingFactory provisions plain sandboxes whose interpreter crashes on
// every request, and records evictions.
type crashingFactory struct {
	mu       sync.Mutex
	created  int
	evicted  []string
	coldFail int // fail this many leading CreateSandbox calls transiently
	seed     int64
}

func (f *crashingFactory) CreateSandbox(ctx context.Context, trustDomain string) (*Sandbox, error) {
	f.mu.Lock()
	f.created++
	fail := f.coldFail > 0
	if fail {
		f.coldFail--
	}
	f.mu.Unlock()
	if fail {
		return nil, fmt.Errorf("%w: simulated provisioning blip", faults.ErrInjected)
	}
	inj := faults.New(f.seed).Add(faults.Rule{Site: faults.SiteSandboxInterpret, Kind: faults.KindCrash})
	return NewContext(ctx, trustDomain, Config{Faults: inj})
}

func (f *crashingFactory) EvictSandbox(sb *Sandbox) {
	f.mu.Lock()
	f.evicted = append(f.evicted, sb.ID)
	f.mu.Unlock()
}

func (f *crashingFactory) stats() (created int, evicted []string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.created, append([]string(nil), f.evicted...)
}

// crashOnce makes one crossing that is expected to crash.
func crashOnce(t *testing.T, d *Dispatcher, session, domain string) *Sandbox {
	t.Helper()
	sb, err := d.AcquireResources(context.Background(), session, domain, "")
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	_, err = sb.Execute(context.Background(), &Request{Specs: []UDFSpec{sumSpec()}, Args: argBatch(1)})
	var crash *SandboxCrashError
	if !errors.As(err, &crash) {
		t.Fatalf("Execute = %v, want SandboxCrashError", err)
	}
	d.Release(session, sb)
	return sb
}

func TestChaosDispatcherQuarantinesAndReprovisions(t *testing.T) {
	f := &crashingFactory{seed: chaosSeed()}
	log := audit.NewLog()
	d := NewSupervised(f, SupervisorConfig{CircuitThreshold: -1, Audit: log, Compute: "STANDARD"})

	sb1 := crashOnce(t, d, "sess", "mallory")
	// The poisoned sandbox was quarantined: evicted from its host, never
	// pooled, and the next acquisition provisions a fresh one.
	_, evicted := f.stats()
	if len(evicted) != 1 || evicted[0] != sb1.ID {
		t.Fatalf("evicted = %v, want [%s]", evicted, sb1.ID)
	}
	sb2, err := d.Acquire("sess", "mallory")
	if err != nil {
		t.Fatal(err)
	}
	if sb2 == sb1 || sb2.ID == sb1.ID {
		t.Error("poisoned sandbox was reused")
	}
	st := d.Stats()
	if st.Crashes != 1 || st.ColdStarts != 2 || st.Active != 1 {
		t.Errorf("stats = %+v", st)
	}
	if n := log.Count(func(e audit.Event) bool { return e.Action == "SANDBOX_CRASH" }); n != 1 {
		t.Errorf("SANDBOX_CRASH events = %d", n)
	}
}

func TestChaosCircuitBreakerTripsAndRecovers(t *testing.T) {
	f := &crashingFactory{seed: chaosSeed()}
	log := audit.NewLog()
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	d := NewSupervised(f, SupervisorConfig{
		CircuitThreshold: 3, CircuitCooldown: time.Minute,
		Audit: log, Compute: "STANDARD", Clock: clock,
	})

	for i := 0; i < 3; i++ {
		crashOnce(t, d, "sess", "mallory")
	}
	if consecutive, open := d.BreakerState("mallory"); !open || consecutive != 3 {
		t.Fatalf("breaker = (%d, %v), want open after 3 crashes", consecutive, open)
	}
	if _, err := d.Acquire("sess", "mallory"); !errors.Is(err, ErrDomainTripped) {
		t.Fatalf("acquire on tripped domain = %v", err)
	}
	// Other trust domains are unaffected (per-domain containment).
	if _, err := d.Acquire("sess", "alice"); err != nil {
		t.Fatalf("healthy domain blocked by mallory's breaker: %v", err)
	}
	if n := log.Count(func(e audit.Event) bool { return e.Action == "CIRCUIT_OPEN" }); n != 1 {
		t.Errorf("CIRCUIT_OPEN events = %d", n)
	}

	// Half-open: after the cooldown one probe goes through; another crash
	// re-trips immediately.
	now = now.Add(2 * time.Minute)
	crashOnce(t, d, "sess", "mallory")
	if _, open := d.BreakerState("mallory"); !open {
		t.Error("breaker did not re-trip after half-open probe crashed")
	}
	if d.Stats().Trips != 2 {
		t.Errorf("trips = %d", d.Stats().Trips)
	}

	// A healthy probe resets the streak and closes the breaker for good.
	now = now.Add(2 * time.Minute)
	sb, err := d.Acquire("sess", "mallory")
	if err != nil {
		t.Fatalf("half-open probe refused: %v", err)
	}
	// Do not execute (it would crash); release healthy.
	d.Release("sess", sb)
	if consecutive, open := d.BreakerState("mallory"); open || consecutive != 0 {
		t.Errorf("breaker after healthy release = (%d, %v)", consecutive, open)
	}
}

func TestChaosProvisionRetriesTransientFaults(t *testing.T) {
	f := &crashingFactory{seed: chaosSeed(), coldFail: 2}
	log := audit.NewLog()
	d := NewSupervised(f, SupervisorConfig{
		ProvisionRetries: 2, RetryBaseDelay: time.Millisecond, RetryMaxDelay: 5 * time.Millisecond,
		Audit: log,
	})
	sb, err := d.Acquire("sess", "alice")
	if err != nil {
		t.Fatalf("provisioning did not recover: %v", err)
	}
	if sb == nil {
		t.Fatal("nil sandbox")
	}
	created, _ := f.stats()
	if created != 3 {
		t.Errorf("create attempts = %d, want 3", created)
	}
	if d.Stats().Retries != 2 {
		t.Errorf("retries = %d", d.Stats().Retries)
	}
	if n := log.Count(func(e audit.Event) bool { return e.Action == "SANDBOX_RETRY" }); n != 2 {
		t.Errorf("SANDBOX_RETRY events = %d", n)
	}
}

func TestChaosProvisionRetriesExhausted(t *testing.T) {
	f := &crashingFactory{seed: chaosSeed(), coldFail: 10}
	d := NewSupervised(f, SupervisorConfig{
		ProvisionRetries: 2, RetryBaseDelay: time.Millisecond, RetryMaxDelay: 5 * time.Millisecond,
	})
	if _, err := d.Acquire("sess", "alice"); !faults.IsTransient(err) {
		t.Fatalf("exhausted retries should surface the transient cause: %v", err)
	}
	created, _ := f.stats()
	if created != 3 { // 1 attempt + 2 retries
		t.Errorf("create attempts = %d, want 3", created)
	}
}

func TestChaosPoisonedSandboxNeverPooled(t *testing.T) {
	// A sandbox that turns out poisoned while sitting in the warm pool is
	// quarantined on acquisition, not handed out.
	var healthy *Sandbox
	f := FactoryFunc(func(ctx context.Context, domain string) (*Sandbox, error) {
		return NewContext(ctx, domain, Config{})
	})
	d := NewSupervised(f, SupervisorConfig{CircuitThreshold: -1})
	sb, err := d.Acquire("sess", "alice")
	if err != nil {
		t.Fatal(err)
	}
	d.Release("sess", sb)
	// Poison it while pooled (models an out-of-band container death).
	sb.kill("host died under pooled sandbox", false, "")
	healthy, err = d.Acquire("sess", "alice")
	if err != nil {
		t.Fatal(err)
	}
	if healthy == sb {
		t.Fatal("poisoned pooled sandbox handed out")
	}
	if d.Stats().Crashes != 1 {
		t.Errorf("stats = %+v", d.Stats())
	}
}
