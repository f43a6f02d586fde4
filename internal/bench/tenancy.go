package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	"lakeguard/internal/admission"
	"lakeguard/internal/connect"
	"lakeguard/internal/proto"
	"lakeguard/internal/telemetry"
	"lakeguard/internal/types"
)

// The multi-tenant saturation experiment drives N well-behaved tenants at a
// steady open-loop arrival rate, plus one greedy tenant offering roughly 10x
// its fair share, all through the Connect front door with the admission
// controller engaged. Capacity is 100 q/s (4 slots x 40ms); innocents offer
// 40 q/s in total and the greedy tenant 200 q/s against a 20 q/s fair share.
// Rates are sized so a single-core runner measures queueing policy, not its
// own scheduler contention.
const (
	// innocentTenants is the number of well-behaved tenants.
	innocentTenants = 4
	// innocentRate is each innocent tenant's arrival rate (req/s).
	innocentRate = 10.0
	// greedyRate is the greedy tenant's offered rate (req/s).
	greedyRate = 200.0
	// tenancyServiceTime is the simulated backend execution time per query;
	// fleet capacity is tenancyMaxConcurrent/tenancyServiceTime queries per
	// second.
	tenancyServiceTime = 40 * time.Millisecond
	// tenancyMaxConcurrent is the admission controller's global
	// concurrency limit.
	tenancyMaxConcurrent = 4
	// tenancyMaxQueueDepth bounds each tenant's admission queue.
	tenancyMaxQueueDepth = 16
)

// DefaultTenancyWindow is the recorded experiment's steady-state measurement
// window per phase.
const DefaultTenancyWindow = 2 * time.Second

// TenancyResult is the saturation experiment outcome. The acceptance bars,
// checked by the bench itself: P99RatioX <= 2 (an innocent tenant's p99 under
// attack stays within 2x of uncontended), InnocentGoodputPct >= 80, and
// GreedySheds > 0 with a positive Retry-After hint.
type TenancyResult struct {
	InnocentTenants int     `json:"innocent_tenants"`
	InnocentRateQPS float64 `json:"innocent_rate_qps"`
	GreedyRateQPS   float64 `json:"greedy_rate_qps"`
	ServiceTimeMS   float64 `json:"service_time_ms"`
	MaxConcurrent   int     `json:"max_concurrent"`
	MaxQueueDepth   int     `json:"max_queue_depth"`
	CapacityQPS     float64 `json:"capacity_qps"`
	DurationMS      float64 `json:"duration_ms"`

	UncontendedP50MS float64 `json:"uncontended_p50_ms"`
	UncontendedP99MS float64 `json:"uncontended_p99_ms"`

	InnocentOffered    int     `json:"innocent_offered"`
	InnocentOK         int     `json:"innocent_ok"`
	InnocentShed       int     `json:"innocent_shed"`
	InnocentGoodputPct float64 `json:"innocent_goodput_pct"`
	InnocentP50MS      float64 `json:"innocent_p50_ms"`
	InnocentP99MS      float64 `json:"innocent_p99_ms"`
	P99RatioX          float64 `json:"p99_ratio_x"`

	GreedyOffered      int     `json:"greedy_offered"`
	GreedyOK           int     `json:"greedy_ok"`
	GreedySheds        int     `json:"greedy_sheds"`
	GreedyGoodputPct   float64 `json:"greedy_goodput_pct"`
	GreedyRetryAfterMS float64 `json:"greedy_mean_retry_after_ms"`
	// ShedP99MS is the p99 round-trip of rejected greedy requests — the cost
	// of a shed, which must stay far below a service time (no slot consumed).
	ShedP99MS float64 `json:"shed_p99_ms"`

	ControllerSheds    int64 `json:"controller_sheds"`
	ControllerTimeouts int64 `json:"controller_timeouts"`
}

// FormatJSON renders the result for BENCH_tenancy.json.
func (r *TenancyResult) FormatJSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// pacedBackend simulates a fleet with a mean per-query service time, making
// capacity deterministic: MaxConcurrent / ServiceTime. Individual queries
// jitter +-50% around the mean — without variance, concurrent slots complete
// in lockstep convoys and every waiter sees worst-case synchronized releases,
// which no real mixed workload exhibits.
type pacedBackend struct {
	service time.Duration
	schema  *types.Schema
	batches []*types.Batch

	mu  sync.Mutex
	rng *rand.Rand
}

func (p *pacedBackend) Execute(ctx context.Context, sessionID, user string, pl *proto.Plan) (*types.Schema, []*types.Batch, error) {
	p.mu.Lock()
	service := p.service/2 + time.Duration(p.rng.Int63n(int64(p.service)))
	p.mu.Unlock()
	t := time.NewTimer(service)
	defer t.Stop()
	select {
	case <-t.C:
		return p.schema, p.batches, nil
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	}
}

func (p *pacedBackend) Explain(ctx context.Context, sessionID, user string, pl *proto.Plan, mode connect.ExplainMode) (*types.Schema, string, int, error) {
	return p.schema, "paced", 0, nil
}

func (p *pacedBackend) CloseSession(string) {}

// tenantLoad is one tenant's measured slice of a phase.
type tenantLoad struct {
	mu         sync.Mutex
	offered    int
	ok         int
	sheds      int
	okLat      []time.Duration
	shedLat    []time.Duration
	retryHints []time.Duration
}

// fire issues open-loop requests at `rate` for `dur` through c, recording
// latencies without closing the loop (a slow response does not slow arrivals).
func (l *tenantLoad) fire(c *connect.Client, rate float64, dur time.Duration) {
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	var wg sync.WaitGroup
	for n := 0; ; n++ {
		next := start.Add(time.Duration(n) * interval)
		if next.Sub(start) >= dur {
			break
		}
		time.Sleep(time.Until(next))
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			_, err := c.Sql("SELECT 1").Collect()
			took := time.Since(t0)
			l.mu.Lock()
			defer l.mu.Unlock()
			l.offered++
			var oe *connect.OverloadedError
			switch {
			case err == nil:
				l.ok++
				l.okLat = append(l.okLat, took)
			case errors.As(err, &oe):
				l.sheds++
				l.shedLat = append(l.shedLat, took)
				l.retryHints = append(l.retryHints, oe.RetryAfter)
			}
		}()
	}
	wg.Wait()
}

func percentile(lat []time.Duration, p float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(p * float64(len(s)-1))
	return s[idx]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// RunTenancy runs the two-phase saturation experiment, each phase lasting
// window: (1) innocents alone establish the uncontended latency baseline;
// (2) the greedy tenant joins at ~10x its fair share. Stride-scheduled
// admission keeps innocents' p99 near baseline while the greedy overflow is
// shed with 429 + Retry-After.
func RunTenancy(window time.Duration) (*TenancyResult, error) {
	schema := types.NewSchema(types.Field{Name: "one", Kind: types.KindInt64})
	bb := types.NewBatchBuilder(schema, 1)
	bb.AppendRow([]types.Value{types.Int64(1)})
	backend := &pacedBackend{
		service: tenancyServiceTime,
		schema:  schema,
		batches: []*types.Batch{bb.Build()},
		rng:     rand.New(rand.NewSource(42)),
	}

	tokens := connect.TokenMap{"greedy-tok": "greedy@corp.com"}
	for i := 0; i < innocentTenants; i++ {
		tokens[fmt.Sprintf("tenant%d-tok", i)] = fmt.Sprintf("tenant%d@corp.com", i)
	}
	met := telemetry.NewRegistry()
	ctrl := admission.NewController(admission.Config{
		MaxConcurrent: tenancyMaxConcurrent,
		MaxQueueDepth: tenancyMaxQueueDepth,
		Metrics:       met,
	})
	svc := connect.NewService(backend, tokens)
	svc.SetAdmission(ctrl)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	newClient := func(token string) *connect.Client {
		c := connect.Dial(ts.URL, token)
		c.SetMaxRetries(0) // the bench measures raw shed behavior
		return c
	}

	runPhase := func(withGreedy bool) ([]*tenantLoad, *tenantLoad) {
		innocents := make([]*tenantLoad, innocentTenants)
		var wg sync.WaitGroup
		for i := range innocents {
			innocents[i] = &tenantLoad{}
			c := newClient(fmt.Sprintf("tenant%d-tok", i))
			wg.Add(1)
			go func(l *tenantLoad) {
				defer wg.Done()
				l.fire(c, innocentRate, window)
			}(innocents[i])
		}
		var greedy *tenantLoad
		if withGreedy {
			greedy = &tenantLoad{}
			c := newClient("greedy-tok")
			wg.Add(1)
			go func() {
				defer wg.Done()
				greedy.fire(c, greedyRate, window)
			}()
		}
		wg.Wait()
		return innocents, greedy
	}

	merge := func(loads []*tenantLoad) *tenantLoad {
		out := &tenantLoad{}
		for _, l := range loads {
			out.offered += l.offered
			out.ok += l.ok
			out.sheds += l.sheds
			out.okLat = append(out.okLat, l.okLat...)
			out.shedLat = append(out.shedLat, l.shedLat...)
		}
		return out
	}

	// Phase 1: innocents alone — the uncontended baseline.
	baseLoads, _ := runPhase(false)
	base := merge(baseLoads)
	if base.ok == 0 {
		return nil, fmt.Errorf("bench: uncontended phase completed no requests")
	}

	// Phase 2: the greedy tenant joins.
	innocentLoads, greedy := runPhase(true)
	innocent := merge(innocentLoads)
	if innocent.offered == 0 || greedy.offered == 0 {
		return nil, fmt.Errorf("bench: contended phase offered no load")
	}

	var hintSum time.Duration
	for _, h := range greedy.retryHints {
		hintSum += h
	}
	meanHint := time.Duration(0)
	if len(greedy.retryHints) > 0 {
		meanHint = hintSum / time.Duration(len(greedy.retryHints))
	}

	st := ctrl.Snapshot()
	res := &TenancyResult{
		InnocentTenants: innocentTenants,
		InnocentRateQPS: innocentRate,
		GreedyRateQPS:   greedyRate,
		ServiceTimeMS:   ms(tenancyServiceTime),
		MaxConcurrent:   tenancyMaxConcurrent,
		MaxQueueDepth:   tenancyMaxQueueDepth,
		CapacityQPS:     float64(tenancyMaxConcurrent) / tenancyServiceTime.Seconds(),
		DurationMS:      ms(window),

		UncontendedP50MS: ms(percentile(base.okLat, 0.50)),
		UncontendedP99MS: ms(percentile(base.okLat, 0.99)),

		InnocentOffered:    innocent.offered,
		InnocentOK:         innocent.ok,
		InnocentShed:       innocent.sheds,
		InnocentGoodputPct: 100 * float64(innocent.ok) / float64(innocent.offered),
		InnocentP50MS:      ms(percentile(innocent.okLat, 0.50)),
		InnocentP99MS:      ms(percentile(innocent.okLat, 0.99)),

		GreedyOffered:      greedy.offered,
		GreedyOK:           greedy.ok,
		GreedySheds:        greedy.sheds,
		GreedyGoodputPct:   100 * float64(greedy.ok) / float64(greedy.offered),
		GreedyRetryAfterMS: ms(meanHint),
		ShedP99MS:          ms(percentile(greedy.shedLat, 0.99)),

		ControllerSheds:    st.Sheds,
		ControllerTimeouts: st.Timeouts,
	}
	if res.UncontendedP99MS > 0 {
		res.P99RatioX = res.InnocentP99MS / res.UncontendedP99MS
	}

	// The experiment's own acceptance bars — failing them fails the bench.
	if res.P99RatioX > 2.0 {
		return res, fmt.Errorf("bench: innocent p99 %.1fms is %.2fx uncontended %.1fms (bar: <= 2x)",
			res.InnocentP99MS, res.P99RatioX, res.UncontendedP99MS)
	}
	if res.InnocentGoodputPct < 80 {
		return res, fmt.Errorf("bench: innocent goodput %.1f%% (bar: >= 80%%)", res.InnocentGoodputPct)
	}
	if res.GreedySheds == 0 {
		return res, fmt.Errorf("bench: greedy tenant at %.0f q/s was never shed", greedyRate)
	}
	if meanHint <= 0 {
		return res, fmt.Errorf("bench: shed responses carried no Retry-After hint")
	}
	return res, nil
}

// FormatTenancy renders the experiment.
func FormatTenancy(r *TenancyResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Multi-tenant saturation: %d innocent tenants @ %.0f q/s each vs 1 greedy tenant @ %.0f q/s\n",
		r.InnocentTenants, r.InnocentRateQPS, r.GreedyRateQPS)
	fmt.Fprintf(&sb, "capacity %.0f q/s (%d slots x %.0fms service), per-tenant queue depth %d, window %.0fms/phase\n\n",
		r.CapacityQPS, r.MaxConcurrent, r.ServiceTimeMS, r.MaxQueueDepth, r.DurationMS)
	fmt.Fprintf(&sb, "  innocent latency   p50 %7.1fms   p99 %7.1fms   (uncontended p99 %.1fms -> %.2fx)\n",
		r.InnocentP50MS, r.InnocentP99MS, r.UncontendedP99MS, r.P99RatioX)
	fmt.Fprintf(&sb, "  innocent goodput   %d/%d = %.1f%%  (%d shed)\n",
		r.InnocentOK, r.InnocentOffered, r.InnocentGoodputPct, r.InnocentShed)
	fmt.Fprintf(&sb, "  greedy goodput     %d/%d = %.1f%%  (%d shed with 429, mean Retry-After %.0fms)\n",
		r.GreedyOK, r.GreedyOffered, r.GreedyGoodputPct, r.GreedySheds, r.GreedyRetryAfterMS)
	fmt.Fprintf(&sb, "  shed round-trip    p99 %.1fms (rejected requests consume no execution slot)\n",
		r.ShedP99MS)
	fmt.Fprintf(&sb, "  controller         sheds %d, queue timeouts %d\n", r.ControllerSheds, r.ControllerTimeouts)
	return sb.String()
}
