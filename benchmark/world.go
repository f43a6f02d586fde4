package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"lakeguard/internal/admission"
	"lakeguard/internal/audit"
	"lakeguard/internal/catalog"
	"lakeguard/internal/connect"
	"lakeguard/internal/core"
	"lakeguard/internal/gateway"
	"lakeguard/internal/session"
	"lakeguard/internal/storage"
	"lakeguard/internal/systemtables"
	"lakeguard/internal/telemetry"
)

// Principals. The querying principal of the read workloads is userPrincipal:
// neither a metastore admin nor a member of the analysts group, so every
// governed read runs behind the row filter and sees masked columns.
const (
	adminPrincipal   = "admin@bench"
	userPrincipal    = "user@bench"
	analystPrincipal = "analyst@bench"
	ownerPrincipal   = "owner@bench"
	analystsGroup    = "analysts"
)

// tokens is the bearer-token table of the Connect endpoint.
var tokens = connect.TokenMap{
	"admin-token":   adminPrincipal,
	"user-token":    userPrincipal,
	"analyst-token": analystPrincipal,
	"owner-token":   ownerPrincipal,
}

// Pinned regardless of the host: the load is two closed-loop clients on two
// scheduler threads, and the engine partitions morsels across two workers.
const (
	pinnedGOMAXPROCS  = 2
	pinnedParallelism = 2
	numClients        = 2
)

// world is the deployment cmd/lakeguard-server wires up, on a loopback
// listener: one catalog, audit log, telemetry registry and tracer, the
// system-table spooler, a shared session store, the gateway fleet, admission
// control, and the Connect service.
type world struct {
	cat      *catalog.Catalog
	audit    *audit.Log
	metrics  *telemetry.Registry
	spooler  *systemtables.Spooler
	sessions *session.Store
	gw       *gateway.Gateway
	ctrl     *admission.Controller
	http     *httptest.Server

	mu      sync.Mutex
	servers []*core.Server // clusters the gateway provisioned, in order

	// handled, when set, receives the server-side duration of every request
	// that carries spanHeader (the traced run's connect.handle spans).
	handled atomic.Pointer[func(tag string, start, end time.Time)]

	stopSweeper func()
}

// spanHeader tags a traced request so the time the Connect handler spends on
// it can be recorded as a span of the statement that sent it.
const spanHeader = "X-Bench-Span"

// timed wraps the Connect handler with a span around ServeHTTP for tagged
// requests; untagged requests pass straight through.
func (w *world) timed(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		tag := r.Header.Get(spanHeader)
		sink := w.handled.Load()
		if tag == "" || sink == nil {
			next.ServeHTTP(rw, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(rw, r)
		(*sink)(tag, start, time.Now())
	})
}

// newWorld stands the deployment up with the flag defaults of
// cmd/lakeguard-server, except that the engine parallelism is pinned. dataDir
// selects storage.NewPersistentStore; empty keeps objects in memory.
func newWorld(dataDir string) (*world, error) {
	store := storage.NewStore()
	if dataDir != "" {
		var err error
		if store, err = storage.NewPersistentStore(dataDir); err != nil {
			return nil, err
		}
	}
	w := &world{audit: audit.NewLog()}
	w.cat = catalog.New(store, w.audit)
	w.cat.AddAdmin(adminPrincipal)
	w.cat.CreateGroup(analystsGroup, analystPrincipal)
	w.metrics = telemetry.NewRegistry()
	tracer := telemetry.NewTracer()
	tracer.SetSlowThreshold(time.Second)
	w.cat.SetMetrics(w.metrics)

	sp, err := systemtables.New(systemtables.Config{
		Catalog: w.cat, Audit: w.audit, Metrics: w.metrics,
		FlushInterval: 2000 * time.Millisecond,
		Retention:     30 * 24 * time.Hour,
	})
	if err != nil {
		return nil, fmt.Errorf("system tables: %w", err)
	}
	w.spooler = sp
	w.spooler.Start()

	w.sessions = session.NewStore()
	w.gw = gateway.New(gateway.Config{
		Provision: func(name string) *core.Server {
			srv := core.NewServer(core.Config{
				Name: name, Catalog: w.cat, Compute: catalog.ComputeServerless,
				Parallelism: pinnedParallelism,
				Metrics:     w.metrics, Sessions: w.sessions, SystemTables: w.spooler,
			})
			w.mu.Lock()
			w.servers = append(w.servers, srv)
			w.mu.Unlock()
			return srv
		},
		MaxSessionsPerCluster: 8,
		Metrics:               w.metrics,
	})
	service := connect.NewService(w.gw, tokens)
	service.SetTracer(tracer)
	w.stopSweeper = service.StartSweeper(30*time.Second, 15*time.Minute)
	service.SetAudit(w.audit)
	w.ctrl = admission.NewController(admission.Config{
		MaxConcurrent: 8,
		MaxQueueDepth: 16,
		Metrics:       w.metrics,
		OnShed: func(tenant, _ string, _ time.Duration) {
			w.spooler.RecordShed(tenant)
		},
	})
	service.SetAdmission(w.ctrl)

	mux := http.NewServeMux()
	mux.Handle("/", w.timed(service.Handler()))
	mux.Handle("/metrics", w.metrics)
	w.http = httptest.NewServer(mux)
	return w, nil
}

// close stops the listener and every goroutine the world started, and waits
// for them.
func (w *world) close() {
	w.http.Close()
	w.stopSweeper()
	w.spooler.Stop()
}

// server returns the first cluster the gateway provisioned; with two
// sessions and eight sessions per cluster it is the only one.
func (w *world) server() *core.Server {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.servers[0]
}

// dial opens a Connect client for a token with retries on shed disabled: a
// shed statement must count as failed, not be hidden by a client retry.
func (w *world) dial(token string) *connect.Client {
	c := connect.Dial(w.http.URL, token)
	c.SetMaxRetries(0)
	return c
}
