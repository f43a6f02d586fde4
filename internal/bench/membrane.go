package bench

import (
	"fmt"
	"math/rand"
	"strings"
)

// The A3 ablation compares cluster utilization under Lakeguard's shared
// sandbox pool with a Membrane-style static split of the cluster into a
// trusted engine domain and a user-code domain (paper §7: "dividing the
// cluster into two security domains does not efficiently allow the sharing
// and scaling of resources based on need"). It models a 16-host cluster
// under a bursty workload.
const (
	// membraneHosts is the cluster size.
	membraneHosts = 16
	// membraneSteps is the number of scheduling ticks to simulate.
	membraneSteps = 2000
	// membraneSeed makes the bursty workload reproducible.
	membraneSeed = 42
	// meanEngineWork and meanUserWork are per-tick expected work units;
	// bursts swing the ratio between them.
	meanEngineWork, meanUserWork = 8.0, 8.0
)

// MembraneResult compares the two architectures.
type MembraneResult struct {
	// LakeguardUtilization and MembraneUtilization are mean fractions of
	// host capacity doing useful work.
	LakeguardUtilization float64
	MembraneUtilization  float64
	// LakeguardBacklog and MembraneBacklog are mean queued work units
	// (lower is better; backlog means queries wait).
	LakeguardBacklog float64
	MembraneBacklog  float64
}

// RunMembraneComparison simulates a bursty workload of engine work (scans,
// joins) and user-code work (UDFs) arriving each tick.
//
//   - Lakeguard: every host can run either kind of work, because isolation
//     is per-sandbox, not per-host. Capacity flexes with the burst.
//   - Membrane: hosts are statically split between a trusted engine domain
//     and a user-code domain; work queues in its own domain even when the
//     other domain is idle (domains can never overlap due to residual
//     state).
func RunMembraneComparison() MembraneResult {
	rng := rand.New(rand.NewSource(membraneSeed))
	halfA := membraneHosts / 2
	halfB := membraneHosts - halfA

	var lgBusy, lgBacklogSum float64
	var mbBusy, mbBacklogSum float64
	var lgQueue float64
	var mbEngineQueue, mbUserQueue float64

	for step := 0; step < membraneSteps; step++ {
		// Bursty arrivals: the engine/user mix oscillates so one domain is
		// periodically hot while the other is cold.
		phase := float64(step%100) / 100
		engineArrive := poissonish(rng, meanEngineWork*(0.2+1.6*phase))
		userArrive := poissonish(rng, meanUserWork*(1.8-1.6*phase))

		// Lakeguard: one shared pool.
		lgQueue += engineArrive + userArrive
		served := minf(lgQueue, float64(membraneHosts))
		lgQueue -= served
		lgBusy += served
		lgBacklogSum += lgQueue

		// Membrane: two static pools.
		mbEngineQueue += engineArrive
		mbUserQueue += userArrive
		se := minf(mbEngineQueue, float64(halfA))
		su := minf(mbUserQueue, float64(halfB))
		mbEngineQueue -= se
		mbUserQueue -= su
		mbBusy += se + su
		mbBacklogSum += mbEngineQueue + mbUserQueue
	}
	total := float64(membraneSteps * membraneHosts)
	return MembraneResult{
		LakeguardUtilization: lgBusy / total,
		MembraneUtilization:  mbBusy / total,
		LakeguardBacklog:     lgBacklogSum / float64(membraneSteps),
		MembraneBacklog:      mbBacklogSum / float64(membraneSteps),
	}
}

// poissonish draws a cheap non-negative random count with the given mean.
func poissonish(rng *rand.Rand, mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return rng.ExpFloat64() * mean
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// FormatMembrane renders the comparison.
func FormatMembrane(r MembraneResult) string {
	var b strings.Builder
	b.WriteString("Ablation A3: shared sandbox pool (Lakeguard) vs static two-domain\n")
	b.WriteString("split (Membrane-style) under a bursty engine/user workload.\n\n")
	fmt.Fprintf(&b, "  Lakeguard: utilization %.1f%%  mean backlog %.1f work units\n",
		r.LakeguardUtilization*100, r.LakeguardBacklog)
	fmt.Fprintf(&b, "  Membrane:  utilization %.1f%%  mean backlog %.1f work units\n",
		r.MembraneUtilization*100, r.MembraneBacklog)
	return b.String()
}
