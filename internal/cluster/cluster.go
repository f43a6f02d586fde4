// Package cluster models the Databricks host architecture (paper Fig. 7): a
// cluster of hosts, each provisioned into a runtime environment reachable by
// the engine and a decoupled, protected cluster-management plane that
// provisions sandboxes on request. The manager is the sandbox.Factory the
// dispatcher calls into; Spark processes never create sandboxes themselves.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"lakeguard/internal/catalog"
	"lakeguard/internal/faults"
	"lakeguard/internal/sandbox"
	"lakeguard/internal/telemetry"
)

// Host is one machine in the cluster.
type Host struct {
	ID string

	mu        sync.Mutex
	sandboxes map[string]*sandbox.Sandbox
	// reserved counts placement slots claimed by in-flight provisioning, so
	// concurrent CreateSandbox calls cannot both pass the density check and
	// overshoot MaxSandboxesPerHost (TOCTOU fix).
	reserved int
}

// SandboxCount reports how many sandboxes run on the host.
func (h *Host) SandboxCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.sandboxes)
}

// load is the placement load: resident sandboxes plus reserved slots.
func (h *Host) load() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.sandboxes) + h.reserved
}

func (h *Host) reserve() {
	h.mu.Lock()
	h.reserved++
	h.mu.Unlock()
}

func (h *Host) unreserve() {
	h.mu.Lock()
	h.reserved--
	h.mu.Unlock()
}

// commit converts a reservation into a resident sandbox.
func (h *Host) commit(sb *sandbox.Sandbox) {
	h.mu.Lock()
	h.reserved--
	h.sandboxes[sb.ID] = sb
	h.mu.Unlock()
}

// Config parametrizes a cluster.
type Config struct {
	// Name labels the cluster (audit attribution).
	Name string
	// Compute is the cluster's compute type, which drives the catalog's
	// privilege scoping.
	Compute catalog.ComputeType
	// Hosts is the number of machines (minimum 1).
	Hosts int
	// MaxSandboxesPerHost caps density (0 = unlimited).
	MaxSandboxesPerHost int
	// Sandbox is the per-sandbox configuration (cold start, fuel, egress).
	Sandbox sandbox.Config
	// ResourcePools defines specialized execution environments outside the
	// standard executor hosts (paper §3.3), e.g. "gpu" or "highmem". UDFs
	// declaring a resource requirement are routed here.
	ResourcePools map[string]PoolConfig
	// Faults is the chaos-test fault injector (site cluster.provision); it
	// is also handed to sandboxes that don't configure their own.
	Faults *faults.Injector
}

// PoolConfig describes one specialized resource pool.
type PoolConfig struct {
	// Hosts is the pool size (minimum 1).
	Hosts int
	// Sandbox overrides the sandbox configuration for this pool; nil
	// inherits the cluster default.
	Sandbox *sandbox.Config
}

// ErrCapacity is returned when every host is at its sandbox cap.
var ErrCapacity = errors.New("cluster: no host has sandbox capacity")

// Manager is the protected cluster-management plane.
type Manager struct {
	cfg       Config
	hosts     []*Host
	poolHosts map[string][]*Host

	// placeMu serializes host selection + slot reservation so concurrent
	// provisioning never double-books the last slot of a host.
	placeMu sync.Mutex

	mu              sync.Mutex
	provisioned     int64
	evicted         int64
	poolProvisioned map[string]int64
	// byID maps live sandboxes to their host for eviction.
	byID map[string]*Host
}

// NewManager provisions a cluster.
func NewManager(cfg Config) *Manager {
	if cfg.Hosts < 1 {
		cfg.Hosts = 1
	}
	if cfg.Sandbox.Faults == nil {
		cfg.Sandbox.Faults = cfg.Faults
	}
	m := &Manager{
		cfg:             cfg,
		poolHosts:       map[string][]*Host{},
		poolProvisioned: map[string]int64{},
		byID:            map[string]*Host{},
	}
	for i := 0; i < cfg.Hosts; i++ {
		m.hosts = append(m.hosts, &Host{
			ID:        fmt.Sprintf("%s-host-%d", cfg.Name, i),
			sandboxes: map[string]*sandbox.Sandbox{},
		})
	}
	for pool, pc := range cfg.ResourcePools {
		n := pc.Hosts
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			m.poolHosts[pool] = append(m.poolHosts[pool], &Host{
				ID:        fmt.Sprintf("%s-%s-host-%d", cfg.Name, pool, i),
				sandboxes: map[string]*sandbox.Sandbox{},
			})
		}
	}
	return m
}

// Name returns the cluster name.
func (m *Manager) Name() string { return m.cfg.Name }

// Compute returns the cluster's compute type.
func (m *Manager) Compute() catalog.ComputeType { return m.cfg.Compute }

// Hosts returns the cluster's hosts.
func (m *Manager) Hosts() []*Host { return m.hosts }

// Provisioned reports how many sandboxes the manager has created in total.
func (m *Manager) Provisioned() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.provisioned
}

// Evicted reports how many sandboxes were evicted from their hosts.
func (m *Manager) Evicted() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.evicted
}

// CreateSandbox implements sandbox.Factory: it picks the least-loaded host
// and provisions a sandbox there. MultiUser isolation holds regardless of
// placement: the sandbox boundary, not the host boundary, is the security
// boundary, which is why standard clusters can share hosts between users
// (unlike the Membrane-style static split).
func (m *Manager) CreateSandbox(ctx context.Context, trustDomain string) (*sandbox.Sandbox, error) {
	return m.CreateSandboxResources(ctx, trustDomain, "")
}

// CreateSandboxResources implements sandbox.ResourceFactory: a non-empty
// resource class routes to that specialized pool's hosts with the pool's
// sandbox configuration.
func (m *Manager) CreateSandboxResources(ctx context.Context, trustDomain, resources string) (*sandbox.Sandbox, error) {
	ctx, sp := telemetry.StartSpan(ctx, "cluster.provision")
	sp.SetAttr("cluster", m.cfg.Name)
	sp.SetAttr("domain", trustDomain)
	if resources != "" {
		sp.SetAttr("pool", resources)
	}
	sb, err := m.createSandboxResources(ctx, trustDomain, resources)
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

func (m *Manager) createSandboxResources(ctx context.Context, trustDomain, resources string) (*sandbox.Sandbox, error) {
	hosts := m.hosts
	cfg := m.cfg.Sandbox
	if resources != "" {
		pc, ok := m.cfg.ResourcePools[resources]
		if !ok {
			return nil, fmt.Errorf("cluster: no resource pool %q on cluster %s", resources, m.cfg.Name)
		}
		hosts = m.poolHosts[resources]
		if pc.Sandbox != nil {
			cfg = *pc.Sandbox
			if cfg.Faults == nil {
				cfg.Faults = m.cfg.Faults
			}
		}
	}
	if err := m.cfg.Faults.CheckContext(ctx, faults.SiteClusterProvision); err != nil {
		return nil, fmt.Errorf("cluster: provisioning on %s: %w", m.cfg.Name, err)
	}
	// Pick and reserve atomically; the slow sandbox creation happens with
	// the slot already held, never exceeding the density cap.
	m.placeMu.Lock()
	host := pickLeastLoaded(hosts, m.cfg.MaxSandboxesPerHost)
	if host != nil {
		host.reserve()
	}
	m.placeMu.Unlock()
	if host == nil {
		return nil, ErrCapacity
	}
	sb, err := sandbox.NewContext(ctx, trustDomain, cfg)
	if err != nil {
		host.unreserve()
		return nil, err
	}
	sb.Resources = resources
	host.commit(sb)
	m.mu.Lock()
	m.provisioned++
	m.byID[sb.ID] = host
	if resources != "" {
		m.poolProvisioned[resources]++
	}
	m.mu.Unlock()
	return sb, nil
}

// EvictSandbox implements sandbox.Evictor: it removes a (closed) sandbox
// from its host so the slot can be reused. Unknown sandboxes are ignored.
func (m *Manager) EvictSandbox(sb *sandbox.Sandbox) {
	m.mu.Lock()
	host := m.byID[sb.ID]
	if host != nil {
		delete(m.byID, sb.ID)
		m.evicted++
	}
	m.mu.Unlock()
	if host == nil {
		return
	}
	host.mu.Lock()
	delete(host.sandboxes, sb.ID)
	host.mu.Unlock()
}

// PoolProvisioned reports how many sandboxes a resource pool has created.
func (m *Manager) PoolProvisioned(resources string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.poolProvisioned[resources]
}

// PoolHosts returns a resource pool's hosts.
func (m *Manager) PoolHosts(resources string) []*Host { return m.poolHosts[resources] }

func pickLeastLoaded(hosts []*Host, maxPerHost int) *Host {
	var best *Host
	bestCount := -1
	for _, h := range hosts {
		c := h.load()
		if maxPerHost > 0 && c >= maxPerHost {
			continue
		}
		if best == nil || c < bestCount {
			best, bestCount = h, c
		}
	}
	return best
}
