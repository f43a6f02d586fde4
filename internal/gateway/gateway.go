// Package gateway implements the Serverless Spark control plane (paper §6.2,
// Fig. 10): a workspace-wide Connect endpoint behind which a regional
// gateway tracks utilization, routes each session to a Standard-architecture
// cluster, provisions new clusters under load, and migrates sessions between
// backends without user-visible downtime.
//
// Routing is a consistent-hash ring with bounded load: a session homes to
// its ring owner unless that cluster is at MaxSessionsPerCluster, in which
// case the lookup walks clockwise to the next cluster with headroom. Growing
// the fleet triggers incremental rebalancing — only sessions whose ring
// owner is the new cluster migrate (~1/N of the fleet), everything else
// stays put. Unhealthy clusters (open circuit breakers in their sandbox
// dispatcher) are auto-drained by the health sweep, reusing the same
// session-migration path as a manual Drain.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"lakeguard/internal/connect"
	"lakeguard/internal/core"
	"lakeguard/internal/faults"
	"lakeguard/internal/proto"
	"lakeguard/internal/telemetry"
	"lakeguard/internal/types"
)

// Provisioner creates a new serverless cluster on demand.
type Provisioner func(name string) *core.Server

// Config parametrizes the gateway.
type Config struct {
	// Provision creates backend clusters (required).
	Provision Provisioner
	// MaxSessionsPerCluster is the bounded-load cap: a cluster at the limit is
	// skipped by the ring lookup, and scale-out triggers when every cluster is
	// at the limit (default 8).
	MaxSessionsPerCluster int
	// MaxClusters bounds the fleet (0 = unlimited).
	MaxClusters int
	// Metrics, when non-nil, exports fleet gauges (gateway.clusters,
	// gateway.sessions) and counters (gateway.rebalances, gateway.autodrains).
	Metrics *telemetry.Registry
	// Faults carries the gateway.route injection site (optional).
	Faults *faults.Injector
}

type member struct {
	name string
	srv  *core.Server
}

// Gateway routes Connect sessions across a fleet of clusters. It implements
// connect.Backend, so a single Connect endpoint serves the whole workspace.
type Gateway struct {
	cfg Config

	gClusters   *telemetry.Gauge
	gSessions   *telemetry.Gauge
	cRebalances *telemetry.Counter
	cAutoDrains *telemetry.Counter

	mu         sync.Mutex
	ring       *ring
	clusters   []*member
	assignment map[string]*member // sessionID -> cluster
	provisions int
	rebalances int64
	autoDrains int64
}

// ErrFleetFull is returned when MaxClusters is reached and all are at
// capacity.
var ErrFleetFull = errors.New("gateway: no cluster capacity and fleet limit reached")

// New creates a gateway with one initial cluster.
func New(cfg Config) *Gateway {
	if cfg.MaxSessionsPerCluster <= 0 {
		cfg.MaxSessionsPerCluster = 8
	}
	g := &Gateway{
		cfg:         cfg,
		ring:        newRing(),
		assignment:  map[string]*member{},
		gClusters:   cfg.Metrics.Gauge("gateway.clusters"),
		gSessions:   cfg.Metrics.Gauge("gateway.sessions"),
		cRebalances: cfg.Metrics.Counter("gateway.rebalances"),
		cAutoDrains: cfg.Metrics.Counter("gateway.autodrains"),
	}
	g.provisionLocked()
	return g
}

// provisionLocked adds one cluster to the fleet and the ring. Caller holds
// g.mu (or is the constructor).
func (g *Gateway) provisionLocked() *member {
	name := fmt.Sprintf("serverless-%d", g.provisions)
	m := &member{name: name, srv: g.cfg.Provision(name)}
	g.clusters = append(g.clusters, m)
	g.ring.Add(name)
	g.provisions++
	g.gClusters.Set(int64(len(g.clusters)))
	return m
}

// loadLocked counts sessions assigned to the named cluster. Caller holds g.mu.
func (g *Gateway) loadLocked(name string) int {
	n := 0
	for _, m := range g.assignment {
		if m.name == name {
			n++
		}
	}
	return n
}

// byNameLocked resolves a cluster by name. Caller holds g.mu.
func (g *Gateway) byNameLocked(name string) *member {
	for _, m := range g.clusters {
		if m.name == name {
			return m
		}
	}
	return nil
}

// route returns the cluster owning a session, assigning or provisioning as
// needed. An assigned session is sticky; a new one homes to its
// consistent-hash owner, skipping clusters at the session cap (bounded
// load); when every cluster is full a new one is provisioned.
func (g *Gateway) route(ctx context.Context, sessionID string) (*core.Server, error) {
	ctx, sp := telemetry.StartSpan(ctx, "gateway.route")
	if err := g.cfg.Faults.CheckContext(ctx, faults.SiteGatewayRoute); err != nil {
		sp.EndErr(err)
		return nil, err
	}
	g.mu.Lock()
	if m, ok := g.assignment[sessionID]; ok {
		g.mu.Unlock()
		sp.SetAttr("cluster", m.name)
		sp.SetAttr("route", "sticky")
		sp.End()
		return m.srv, nil
	}
	name, ok := g.ring.Lookup(sessionID, func(n string) bool {
		return g.loadLocked(n) >= g.cfg.MaxSessionsPerCluster
	})
	var m *member
	if ok {
		m = g.byNameLocked(name)
	} else {
		if g.cfg.MaxClusters > 0 && len(g.clusters) >= g.cfg.MaxClusters {
			g.mu.Unlock()
			sp.EndErr(ErrFleetFull)
			return nil, ErrFleetFull
		}
		m = g.provisionLocked()
	}
	g.assignment[sessionID] = m
	g.gSessions.Set(int64(len(g.assignment)))
	g.mu.Unlock()
	sp.SetAttr("cluster", m.name)
	sp.SetAttr("route", "ring")
	sp.End()
	return m.srv, nil
}

// Execute implements connect.Backend. Routing runs under a
// "gateway.execute" span so a trace shows which cluster served the query.
func (g *Gateway) Execute(ctx context.Context, sessionID, user string, pl *proto.Plan) (*types.Schema, []*types.Batch, error) {
	ctx, sp := telemetry.StartSpan(ctx, "gateway.execute")
	srv, err := g.route(ctx, sessionID)
	if err != nil {
		sp.EndErr(err)
		return nil, nil, err
	}
	sp.SetAttr("cluster", srv.ClusterManager().Name())
	schema, batches, err := srv.Execute(ctx, sessionID, user, pl)
	sp.EndErr(err)
	return schema, batches, err
}

// Explain implements connect.Backend, routing to the session's cluster so
// the plan, annotations and profile are those of the cluster that would
// execute the query.
func (g *Gateway) Explain(ctx context.Context, sessionID, user string, pl *proto.Plan, mode connect.ExplainMode) (*types.Schema, string, int, error) {
	ctx, sp := telemetry.StartSpan(ctx, "gateway.explain")
	srv, err := g.route(ctx, sessionID)
	if err != nil {
		sp.EndErr(err)
		return nil, "", 0, err
	}
	sp.SetAttr("cluster", srv.ClusterManager().Name())
	schema, text, rows, err := srv.Explain(ctx, sessionID, user, pl, mode)
	sp.EndErr(err)
	return schema, text, rows, err
}

// CloseSession implements connect.Backend.
func (g *Gateway) CloseSession(sessionID string) {
	g.mu.Lock()
	m := g.assignment[sessionID]
	delete(g.assignment, sessionID)
	g.gSessions.Set(int64(len(g.assignment)))
	g.mu.Unlock()
	if m != nil {
		m.srv.CloseSession(sessionID)
	}
}

// migrateLocked moves one session's state from one cluster to another. When
// both clusters share a session store the state never moves — the victim
// only detaches its cluster-local resources (warm sandboxes); otherwise the
// state is exported, imported, and closed on the victim. Caller holds g.mu.
func (g *Gateway) migrateLocked(sessionID string, from, to *member) error {
	if from.srv.SessionStore() == to.srv.SessionStore() {
		from.srv.DetachSession(sessionID)
		return nil
	}
	snap, ok := from.srv.ExportSession(sessionID)
	if !ok {
		return nil
	}
	if err := to.srv.ImportSession(sessionID, snap); err != nil {
		return err
	}
	from.srv.CloseSession(sessionID)
	return nil
}

// drainLocked migrates every session off victim onto the rest of the fleet
// (respecting MaxSessionsPerCluster, provisioning when the rest is full) and
// removes it from the fleet. Caller holds g.mu.
func (g *Gateway) drainLocked(victim *member) (migrated int, err error) {
	for i, m := range g.clusters {
		if m == victim {
			g.clusters = append(g.clusters[:i], g.clusters[i+1:]...)
			break
		}
	}
	g.ring.Remove(victim.name)
	g.gClusters.Set(int64(len(g.clusters)))

	var moving []string
	for sid, m := range g.assignment {
		if m == victim {
			moving = append(moving, sid)
		}
	}
	sort.Strings(moving)

	for _, sid := range moving {
		name, ok := g.ring.Lookup(sid, func(n string) bool {
			return g.loadLocked(n) >= g.cfg.MaxSessionsPerCluster
		})
		var target *member
		if ok {
			target = g.byNameLocked(name)
		} else {
			if g.cfg.MaxClusters > 0 && len(g.clusters) >= g.cfg.MaxClusters {
				return migrated, ErrFleetFull
			}
			target = g.provisionLocked()
		}
		if err := g.migrateLocked(sid, victim, target); err != nil {
			return migrated, err
		}
		g.assignment[sid] = target
		migrated++
	}
	return migrated, nil
}

// Drain migrates every session off the given cluster (by index) onto the
// rest of the fleet and removes it — the session-migration mechanism behind
// seamless backend replacement (§6.2). Re-routing respects
// MaxSessionsPerCluster: migrated sessions spread across clusters with
// headroom, provisioning a new cluster when the rest of the fleet is full.
func (g *Gateway) Drain(clusterIdx int) (migrated int, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if clusterIdx < 0 || clusterIdx >= len(g.clusters) {
		return 0, fmt.Errorf("gateway: no cluster %d", clusterIdx)
	}
	return g.drainLocked(g.clusters[clusterIdx])
}

// CheckHealth sweeps the fleet and auto-drains every cluster whose sandbox
// dispatcher reports an open circuit breaker — the PR-2 signal that a trust
// domain is crash-looping there. Sessions migrate to healthy clusters (or a
// fresh one) with no client-visible state loss. Returns the number of
// clusters drained.
func (g *Gateway) CheckHealth() (drained int, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		var sick *member
		for _, m := range g.clusters {
			if m.srv.Dispatcher().OpenBreakers() > 0 {
				sick = m
				break
			}
		}
		if sick == nil {
			return drained, nil
		}
		if _, err := g.drainLocked(sick); err != nil {
			return drained, err
		}
		drained++
		g.autoDrains++
		g.cAutoDrains.Inc()
	}
}

// Grow provisions one cluster and incrementally rebalances: only sessions
// whose ring owner is now the new cluster migrate. Returns the new cluster's
// name and how many sessions moved.
func (g *Gateway) Grow() (name string, moved int, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cfg.MaxClusters > 0 && len(g.clusters) >= g.cfg.MaxClusters {
		return "", 0, ErrFleetFull
	}
	m := g.provisionLocked()
	return m.name, g.rebalanceLocked(), nil
}

// ShrinkOne drains the least-loaded cluster if the rest of the fleet has
// headroom for its sessions. Returns ("", 0, nil) when the fleet cannot
// shrink (single cluster, or no headroom).
func (g *Gateway) ShrinkOne() (name string, migrated int, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.clusters) <= 1 {
		return "", 0, nil
	}
	var victim *member
	victimLoad := 0
	for _, m := range g.clusters {
		load := g.loadLocked(m.name)
		if victim == nil || load < victimLoad {
			victim, victimLoad = m, load
		}
	}
	headroom := 0
	for _, m := range g.clusters {
		if m != victim {
			headroom += g.cfg.MaxSessionsPerCluster - g.loadLocked(m.name)
		}
	}
	if headroom < victimLoad {
		return "", 0, nil
	}
	migrated, err = g.drainLocked(victim)
	return victim.name, migrated, err
}

// rebalanceLocked migrates every session whose bounded-load ring owner
// differs from its current cluster — after a Grow this is ~1/N of sessions,
// the consistent-hashing minimum. Caller holds g.mu.
func (g *Gateway) rebalanceLocked() int {
	sids := make([]string, 0, len(g.assignment))
	for sid := range g.assignment {
		sids = append(sids, sid)
	}
	sort.Strings(sids)
	moved := 0
	for _, sid := range sids {
		cur := g.assignment[sid]
		name, ok := g.ring.Lookup(sid, func(n string) bool {
			return n != cur.name && g.loadLocked(n) >= g.cfg.MaxSessionsPerCluster
		})
		if !ok || name == cur.name {
			continue
		}
		target := g.byNameLocked(name)
		if err := g.migrateLocked(sid, cur, target); err != nil {
			continue
		}
		g.assignment[sid] = target
		moved++
	}
	if moved > 0 {
		g.rebalances += int64(moved)
		g.cRebalances.Add(int64(moved))
	}
	return moved
}

// Stats reports fleet state.
type Stats struct {
	Clusters   int
	Sessions   int
	Provisions int
	// Rebalances counts sessions migrated by incremental rebalancing.
	Rebalances int64
	// AutoDrains counts clusters drained by the health sweep.
	AutoDrains int64
	// PerCluster maps cluster name to assigned session count.
	PerCluster map[string]int
}

// FleetStats returns a snapshot.
func (g *Gateway) FleetStats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := Stats{
		Clusters: len(g.clusters), Sessions: len(g.assignment),
		Provisions: g.provisions, Rebalances: g.rebalances, AutoDrains: g.autoDrains,
		PerCluster: map[string]int{},
	}
	for _, m := range g.clusters {
		st.PerCluster[m.name] = g.loadLocked(m.name)
	}
	return st
}

var _ connect.Backend = (*Gateway)(nil)
