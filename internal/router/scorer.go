// Package router is the serving front door: it admits requests to the
// cluster through multi-objective worker scoring instead of the placer's
// implicit round-robin. Workers (GPUs) are scored from a cached metrics
// snapshot — free memory, queue depth, EWMA service latency, utilization —
// refreshed in virtual time; picks go weighted-random among the top-k to
// avoid thundering herds, skip unhealthy workers (fault-injector crash
// signals), and carry per-request QoS classes into the workers' compute-slot
// queues. The scoring core below is pure (no engine, no cluster) so the
// property and fuzz harnesses can pin its behavior directly.
package router

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"time"
)

// ErrNoWorker is returned when routing finds no healthy placement: zero
// workers, or every candidate unhealthy.
var ErrNoWorker = errors.New("router: no healthy worker")

// WorkerState is one worker's entry in the cached metrics snapshot.
type WorkerState struct {
	// Node and GPU locate the worker.
	Node, GPU int
	// Healthy is false while the worker is blacklisted after a crash.
	Healthy bool
	// FreeMem is the GPU's free memory in bytes (more is better).
	FreeMem int64
	// QueueDepth counts compute-slot waiters plus held slots (less is
	// better).
	QueueDepth int
	// EWMALatency smooths recent compute-slot service times (less is
	// better).
	EWMALatency time.Duration
	// Utilization is the busy fraction since the previous snapshot, in
	// [0,1] (less is better). NaN or out-of-range inputs are sanitized to
	// the worst value rather than poisoning the scores.
	Utilization float64
	// Affinity is the requesting session's decayed affinity for this worker
	// in [0,1]: 1 when the session's state (KV cache, warm replica) was
	// touched here just now, decaying to 0 with staleness. Zero for workers
	// the session never used and for sessionless requests. Unlike the other
	// metrics it is already normalized, so Score uses it raw (no min-max):
	// a lone pinned candidate must still outscore strangers.
	Affinity float64
}

// Weights are the scorer's multi-objective coefficients. Negative, NaN, or
// infinite weights count as zero; all-zero weights score every worker
// equally (uniform scoring, the differential oracle's configuration).
type Weights struct {
	FreeMem, Queue, Latency, Util float64
	// Session weights the session-affinity term (WorkerState.Affinity).
	// Zero — the default, and every pre-affinity configuration — leaves
	// scoring byte-identical to the affinity-free scorer.
	Session float64
}

// saneWeight clamps a weight to a usable non-negative finite value.
func saneWeight(w float64) float64 {
	if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
		return 0
	}
	return w
}

// saneUtil maps utilization onto [0,1], sending NaN and +Inf to the worst
// value (fully busy) and negative or -Inf to idle.
func saneUtil(u float64) float64 {
	if math.IsNaN(u) || math.IsInf(u, 1) {
		return 1
	}
	if u < 0 || math.IsInf(u, -1) {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// Score returns each worker's score in [0,1]: a weighted sum of per-metric
// min-max normalizations over the candidate set (free memory scored high =
// good; queue depth, EWMA latency, and utilization inverted). A metric with
// no spread across candidates contributes a neutral 0.5, and an all-zero
// weight vector scores every worker 0.5 — uniform.
func Score(states []WorkerState, w Weights) []float64 {
	return scoreInto(make([]float64, len(states)), states, w)
}

// scoreInto is Score writing into scores, which must hold len(states)
// entries.
func scoreInto(scores []float64, states []WorkerState, w Weights) []float64 {
	if len(states) == 0 {
		return scores
	}
	wf, wq, wl, wu := saneWeight(w.FreeMem), saneWeight(w.Queue), saneWeight(w.Latency), saneWeight(w.Util)
	ws := saneWeight(w.Session)
	sumW := wf + wq + wl + wu + ws
	if sumW == 0 {
		for i := range scores {
			scores[i] = 0.5
		}
		return scores
	}
	// Per-metric bounds over the candidate set.
	var loF, hiF, loQ, hiQ, loL, hiL, loU, hiU float64
	for i, s := range states {
		f := float64(max64(s.FreeMem, 0))
		q := float64(maxInt(s.QueueDepth, 0))
		l := float64(max64(int64(s.EWMALatency), 0))
		u := saneUtil(s.Utilization)
		if i == 0 {
			loF, hiF, loQ, hiQ, loL, hiL, loU, hiU = f, f, q, q, l, l, u, u
			continue
		}
		loF, hiF = math.Min(loF, f), math.Max(hiF, f)
		loQ, hiQ = math.Min(loQ, q), math.Max(hiQ, q)
		loL, hiL = math.Min(loL, l), math.Max(hiL, l)
		loU, hiU = math.Min(loU, u), math.Max(hiU, u)
	}
	norm := func(v, lo, hi float64) float64 {
		if hi <= lo {
			return 0.5
		}
		return (v - lo) / (hi - lo)
	}
	for i, s := range states {
		fm := norm(float64(max64(s.FreeMem, 0)), loF, hiF)
		q := 1 - norm(float64(maxInt(s.QueueDepth, 0)), loQ, hiQ)
		l := 1 - norm(float64(max64(int64(s.EWMALatency), 0)), loL, hiL)
		u := 1 - norm(saneUtil(s.Utilization), loU, hiU)
		// Affinity is used raw (already in [0,1], saneUtil reuses the clamp):
		// min-max normalizing it would hand every candidate 0.5 whenever the
		// session has no pin among them, and 1.0 to the pinned worker even as
		// its affinity decays toward zero.
		aff := saneUtil(s.Affinity)
		scores[i] = (wf*fm + wq*q + wl*l + wu*u + ws*aff) / sumW
	}
	return scores
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// RouteRequest picks a worker index (into states) for request seq:
//
//  1. unhealthy workers are filtered out (ErrNoWorker if none remain);
//  2. the survivors are scored (Score) and their order rotated by seq, so
//     equal scores degrade to round-robin — with k=1 and uniform weights the
//     pick is exactly seq mod workers, the cluster's placement-only
//     admission (the differential oracle relies on this);
//  3. a stable sort by descending score keeps the rotation as tie-break;
//  4. the pick goes weighted-random (score-proportional with a floor, so
//     near-ties spread instead of herding) among the top k.
//
// rng is consulted only when more than one candidate survives to step 4; a
// nil rng degrades to the top-scored candidate. The function never panics on
// adversarial snapshots — that is FuzzRouteRequest's contract. It runs the
// router's own pick code on fresh scratch; a Router reuses its scratch.
func RouteRequest(states []WorkerState, cfg Config, seq int64, rng *rand.Rand) (int, error) {
	var b pickBuf
	return b.pick(states, cfg, seq, rng)
}

// pickBuf is the scratch one pick filters, scores, rotates and sorts in.
// A Router keeps one, so its picks allocate nothing once the buffers have
// grown to the largest pool.
type pickBuf struct {
	healthy []int
	sub     []WorkerState
	scores  []float64
	order   []int
}

// pick is RouteRequest on b's buffers.
func (b *pickBuf) pick(states []WorkerState, cfg Config, seq int64, rng *rand.Rand) (int, error) {
	healthy := b.healthy[:0]
	sub := b.sub[:0]
	for i := range states {
		if states[i].Healthy {
			healthy = append(healthy, i)
			sub = append(sub, states[i])
		}
	}
	b.healthy, b.sub = healthy, sub
	n := len(healthy)
	if n == 0 {
		return 0, ErrNoWorker
	}
	b.scores = scoreInto(slices.Grow(b.scores[:0], n)[:n], sub, cfg.Weights)
	scores := b.scores

	// Rotate the candidate order by seq: ties resolve round-robin.
	start := int(((seq % int64(n)) + int64(n)) % int64(n))
	order := b.order[:0]
	for j := 0; j < n; j++ {
		order = append(order, (start+j)%n)
	}
	b.order = order
	slices.SortStableFunc(order, func(x, y int) int {
		// Descending by score; the stable sort keeps the rotation among ties.
		switch {
		case scores[x] > scores[y]:
			return -1
		case scores[x] < scores[y]:
			return 1
		}
		return 0
	})

	k := cfg.TopK
	if k <= 0 {
		k = 1
	}
	if k > n {
		k = n
	}
	if k == 1 || rng == nil {
		return healthy[order[0]], nil
	}
	// An idle top candidate cannot herd — it starts serving immediately and
	// the pending discount makes the very next pick see it busy — so take it
	// deterministically; randomizing here only adds placement variance at
	// low load.
	if sub[order[0]].QueueDepth <= 0 {
		return healthy[order[0]], nil
	}
	// Weighted-random among the top k. The floor keeps zero-scored
	// candidates drawable so a herd cannot form on the single best worker.
	const floor = 0.05
	total := 0.0
	for _, j := range order[:k] {
		total += scores[j] + floor
	}
	draw := rng.Float64() * total
	for _, j := range order[:k] {
		draw -= scores[j] + floor
		if draw < 0 {
			return healthy[j], nil
		}
	}
	return healthy[order[k-1]], nil
}
