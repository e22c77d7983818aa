package router

import (
	"math"
	"time"

	"grouter/internal/cluster"
)

// SLO-aware admission control. The router installs an AdmitFn on its app
// when the configuration carries at least one class budget; every submission
// then passes through Admit below before launching. The predictor estimates
// the completion time a request admitted now would see from the same cached
// worker snapshot the scorer picks from (queue depth with the pending-pick
// discount folded in, times the worker's EWMA service latency), and a
// request predicted to bust its class budget is parked in a bounded
// virtual-time delay queue — or shed once the bound is spent. The functions
// here are pure (no engine, no cluster state) so the property and fuzz
// harnesses can pin their behavior directly.

// SLOClass is one QoS class's admission objective.
type SLOClass struct {
	// Budget is the class's end-to-end latency objective, counted from
	// submission. Zero (or negative) disables admission control for the
	// class — its requests always run.
	Budget time.Duration
	// MaxDelay bounds a request's cumulative delay-queue time: a request
	// still predicted to miss after waiting MaxDelay is shed. Zero sheds
	// predicted misses immediately (no deferral).
	MaxDelay time.Duration
}

// SLOConfig is the router's per-class admission configuration. The zero
// value disables admission control entirely.
type SLOConfig struct {
	// Low and High configure the QoSLow and QoSHigh classes.
	Low, High SLOClass
}

// recheck is the delay-queue re-admission period: a deferred request re-runs
// admission every recheck until it is admitted or its class MaxDelay is
// spent.
const recheck = time.Millisecond

// Enabled reports whether any class carries a budget.
func (c SLOConfig) Enabled() bool { return c.Low.Budget > 0 || c.High.Budget > 0 }

// Class returns the admission objective for one QoS class; unknown classes
// (possible only on the unvalidated internal path) fall back to Low.
func (c SLOConfig) Class(q cluster.QoS) SLOClass {
	if q == cluster.QoSHigh {
		return c.High
	}
	return c.Low
}

// maxDuration caps predicted completion estimates so arithmetic on
// adversarial snapshots (huge queues × huge EWMAs) saturates instead of
// overflowing.
const maxDuration = time.Duration(math.MaxInt64)

// PredictCompletion estimates the completion time of a request admitted
// against the snapshot now: the minimum over healthy workers of
// (QueueDepth+1) × EWMA service latency — the queued work ahead of the
// request plus its own service, on the emptiest-fastest worker. Queue depths
// include the caller's pending-pick discount when the caller folded it in.
// The estimate is monotone non-decreasing in every worker's queue depth and
// EWMA, saturates at the maximum Duration instead of overflowing, and
// returns the maximum when no healthy worker exists (nothing can complete).
// A worker with no service history (zero EWMA) predicts zero — an optimistic
// cold-start assumption, matching the scorer's treatment of unseasoned
// workers as fast.
func PredictCompletion(states []WorkerState) time.Duration {
	best := maxDuration
	for i := range states {
		if !states[i].Healthy {
			continue
		}
		q := float64(maxInt(states[i].QueueDepth, 0)) + 1
		l := float64(max64(int64(states[i].EWMALatency), 0))
		est := q * l
		if est >= float64(maxDuration) {
			est = float64(maxDuration)
		}
		if d := time.Duration(est); d < best {
			best = d
		}
	}
	return best
}

// anyIdleHealthy reports whether some healthy worker has an empty queue.
func anyIdleHealthy(states []WorkerState) bool {
	for i := range states {
		if states[i].Healthy && states[i].QueueDepth <= 0 {
			return true
		}
	}
	return false
}

// PredictPipeline estimates the completion time of a request that must
// traverse every stage pool in turn: the saturating sum of PredictCompletion
// over the stages. A min over the union of all pools would be wrong — an
// idle worker in a cheap post-processing pool would hide a 200-deep queue at
// the bottleneck stage — so each stage contributes its own emptiest-worker
// estimate. Empty stages contribute nothing; a stage with no healthy worker
// saturates the whole estimate (the pipeline cannot complete).
func PredictPipeline(stages [][]WorkerState) time.Duration {
	var total time.Duration
	for _, st := range stages {
		if len(st) == 0 {
			continue
		}
		p := PredictCompletion(st)
		if p >= maxDuration-total {
			return maxDuration
		}
		total += p
	}
	return total
}

// pipelineIdle reports whether every non-empty stage pool has an idle healthy
// worker — free capacity end to end, where shedding can never help.
func pipelineIdle(stages [][]WorkerState) bool {
	for _, st := range stages {
		if len(st) > 0 && !anyIdleHealthy(st) {
			return false
		}
	}
	return true
}

// Admit is the pure admission decision for one attempt: a request of class q
// that has already waited `waited` in the delay queue, against the given
// worker snapshot (one stage pool). The rules, in order:
//
//  1. a class without a budget always runs;
//  2. a snapshot with an idle healthy worker always runs — shedding while
//     capacity sits free can never improve attainment (the fuzz harness
//     pins this: Admit never sheds when any worker is idle);
//  3. a request predicted to complete within its remaining budget
//     (Budget − waited) runs;
//  4. a predicted miss defers by recheck (1ms) while cumulative wait stays
//     inside the class MaxDelay, and is shed once the bound is spent.
//
// The decision is deterministic and never panics on adversarial
// configurations or snapshots — that is FuzzAdmission's contract.
func Admit(states []WorkerState, cfg SLOConfig, q cluster.QoS, waited time.Duration) (cluster.AdmitAction, time.Duration) {
	return AdmitPipeline([][]WorkerState{states}, cfg, q, waited)
}

// AdmitPipeline is Admit over a multi-stage pipeline: the prediction is
// PredictPipeline's per-stage sum, and the idle short-circuit requires free
// capacity at every stage (idle capacity in one pool does not absorb a queue
// in another). Admit is exactly the single-stage special case.
func AdmitPipeline(stages [][]WorkerState, cfg SLOConfig, q cluster.QoS, waited time.Duration) (cluster.AdmitAction, time.Duration) {
	cls := cfg.Class(q)
	if cls.Budget <= 0 {
		return cluster.AdmitRun, 0
	}
	if pipelineIdle(stages) {
		return cluster.AdmitRun, 0
	}
	if waited < 0 {
		waited = 0
	}
	remaining := cls.Budget - waited
	if PredictPipeline(stages) <= remaining {
		return cluster.AdmitRun, 0
	}
	if cls.MaxDelay > 0 && waited+recheck <= cls.MaxDelay {
		return cluster.AdmitDefer, recheck
	}
	return cluster.AdmitShed, 0
}
