// Package autoscale holds the pluggable scaling strategies behind the
// cluster's elastic instance pools. A strategy is a pure function from one
// pool observation (PoolMetrics) to a desired active replica count; the
// elastic controller in internal/cluster owns everything stateful around it —
// min/max clamping, cooldowns, cordon/drain, provisioning delay, health. Pure
// strategies keep the decision logic directly unit-testable and deterministic:
// the same observation stream always yields the same scaling decisions.
//
// Three strategies ship, mirroring the progression the serverless-GPU
// literature motivates (Torpor's SLO-aware scaling over purely reactive
// policies): Reactive (queue-depth thresholds, the classic serverless
// controller), TargetUtilization (size the pool so per-instance demand sits at
// a setpoint), and Predictive (trend-extrapolate demand history and provision
// ahead of it, hiding provisioning latency). Fixed pins the pool for
// differential oracles and fixed-fleet cost baselines.
package autoscale

import "math"

// PoolMetrics is one controller observation of one instance pool, taken at a
// single virtual-time instant.
type PoolMetrics struct {
	// Active counts routable healthy instances; Provisioning counts
	// instances paying their provisioning delay (capacity already ordered
	// but not yet serving); Draining counts cordoned instances finishing
	// in-flight work; Unhealthy counts crash-blacklisted instances.
	Active       int
	Provisioning int
	Draining     int
	Unhealthy    int
	// Queue sums compute-slot waiters across active instances; Busy sums
	// held slots. Load = Queue + Busy is the pool's outstanding work in
	// instance-slots.
	Queue int
	Busy  int
	Load  float64
	// History holds the most recent Load samples, oldest first, the current
	// observation last. The controller bounds its length (8 observations).
	History []float64
	// Attainment is the front-door router's predicted SLO attainment in
	// [0,1] — the minimum across QoS classes of the fraction of recent
	// admission decisions predicted to meet their class budget. Negative
	// means unknown (no SLO-aware router installed); strategies must treat
	// that as "no signal", not as zero attainment.
	Attainment float64
}

// Autoscaler decides a pool's desired active replica count. Desired may
// return any value; the controller clamps it to [Min, Max] and applies
// per-direction cooldowns, so strategies express intent, not mechanism.
type Autoscaler interface {
	Name() string
	Desired(m PoolMetrics) int
}

// Fixed pins the pool at a constant size — the fixed-fleet baseline of the
// ext-elastic cost comparison, and (at the pool's initial size) the
// differential oracle proving the elastic machinery itself changes nothing.
type Fixed struct {
	// Replicas is the pinned pool size; <= 0 holds the current size.
	Replicas int
}

func (f Fixed) Name() string { return "fixed" }

func (f Fixed) Desired(m PoolMetrics) int {
	if f.Replicas <= 0 {
		return m.Active + m.Provisioning
	}
	return f.Replicas
}

// Reactive is the queue-depth threshold controller: scale out one instance
// when the mean per-instance queue reaches ScaleOutDepth, scale in one when
// the pool is completely idle. The trigger is the integer mean of waiters
// only.
type Reactive struct {
	// ScaleOutDepth is the per-instance mean waiter count that triggers a
	// scale-out (< 1 is clamped to 1).
	ScaleOutDepth int
	// ScaleIn enables idle scale-in; false keeps the pool scale-out only.
	ScaleIn bool
}

func (r Reactive) Name() string { return "reactive" }

func (r Reactive) Desired(m PoolMetrics) int {
	depth := r.ScaleOutDepth
	if depth < 1 {
		depth = 1
	}
	if m.Active < 1 {
		return 1
	}
	if m.Queue/m.Active >= depth {
		return m.Active + m.Provisioning + 1
	}
	if r.ScaleIn && m.Queue == 0 && m.Busy == 0 && m.Provisioning == 0 {
		return m.Active - 1
	}
	return m.Active + m.Provisioning
}

// SLOAware scales on the router's predicted SLO miss rate instead of raw
// queue depth (Torpor-style): while predicted attainment sits below Target
// the pool grows, one instance per observation, regardless of how shallow
// the queues look — a shallow queue on a slow worker still misses budgets.
// Without an attainment signal (PoolMetrics.Attainment < 0) it degrades to
// the Reactive queue-depth trigger, so the strategy is safe to install on
// pools whose app has no SLO-aware router. Scale-in follows Reactive's idle
// rule, additionally gated on attainment meeting Target: capacity is never
// shed while the predictor still sees misses.
type SLOAware struct {
	// Target is the attainment objective in (0,1] (default 0.95).
	Target float64
	// ScaleOutDepth is the fallback per-instance queue trigger used when no
	// attainment signal flows (< 1 clamps to 2, Reactive's default trigger).
	ScaleOutDepth int
	// ScaleIn enables idle scale-in once attainment meets Target.
	ScaleIn bool
}

func (s SLOAware) Name() string { return "slo-aware" }

func (s SLOAware) target() float64 {
	if s.Target <= 0 || s.Target > 1 || math.IsNaN(s.Target) {
		return 0.95
	}
	return s.Target
}

func (s SLOAware) Desired(m PoolMetrics) int {
	if m.Active < 1 {
		return 1
	}
	known := m.Attainment >= 0 && !math.IsNaN(m.Attainment)
	if known && m.Attainment < s.target() {
		return m.Active + m.Provisioning + 1
	}
	if !known {
		depth := s.ScaleOutDepth
		if depth < 1 {
			depth = 2
		}
		if m.Queue/m.Active >= depth {
			return m.Active + m.Provisioning + 1
		}
	}
	if s.ScaleIn && m.Queue == 0 && m.Busy == 0 && m.Provisioning == 0 {
		return m.Active - 1
	}
	return m.Active + m.Provisioning
}

// TargetUtilization sizes the pool so per-instance demand (Load / replicas)
// sits at a setpoint: desired = ceil(Load / PerInstance). Unlike Reactive it
// can order several instances in one step when a burst lands, and it scales
// in proportionally as load recedes.
type TargetUtilization struct {
	// PerInstance is the demand setpoint per instance in slot units
	// (default 0.75: an instance ~3/4 occupied with no standing queue).
	PerInstance float64
}

func (t TargetUtilization) Name() string { return "target-util" }

func (t TargetUtilization) setpoint() float64 {
	if t.PerInstance <= 0 || math.IsNaN(t.PerInstance) || math.IsInf(t.PerInstance, 0) {
		return 0.75
	}
	return t.PerInstance
}

func (t TargetUtilization) Desired(m PoolMetrics) int {
	return sizeFor(m.Load, t.setpoint())
}

// Predictive extrapolates the pool's demand history with a least-squares
// linear trend and sizes the pool for the forecast Lead observations ahead,
// so capacity is ordered before the burst peaks instead of after — the
// provisioning delay hides inside the forecast horizon. It never sizes below
// what current load requires (forecast-only scale-in cannot shed capacity a
// standing queue still needs).
type Predictive struct {
	// PerInstance is the demand setpoint per instance (default 0.75).
	PerInstance float64
	// Lead is how many observation intervals ahead to forecast (default 2).
	Lead int
}

func (p Predictive) Name() string { return "predictive" }

func (p Predictive) Desired(m PoolMetrics) int {
	set := TargetUtilization{PerInstance: p.PerInstance}.setpoint()
	lead := p.Lead
	if lead < 1 {
		lead = 2
	}
	// Size for whichever is larger, present load or forecast demand: the
	// forecast orders capacity ahead of a rising trend, and a standing queue
	// is never shed on a falling one.
	load := m.Load
	if f := Forecast(m.History, lead); f > load {
		load = f
	}
	return sizeFor(load, set)
}

// Forecast returns the least-squares linear extrapolation of the sample
// series lead steps past its final point. Fewer than two samples (or a
// degenerate fit) forecast the last sample; a negative extrapolation clamps
// to zero.
func Forecast(samples []float64, lead int) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return samples[0]
	}
	// x = 0..n-1; least squares slope/intercept.
	var sumX, sumY, sumXY, sumXX float64
	for i, y := range samples {
		x := float64(i)
		sumX += x
		sumY += y
		sumXY += x * y
		sumXX += x * x
	}
	fn := float64(n)
	den := fn*sumXX - sumX*sumX
	if den == 0 {
		return samples[n-1]
	}
	slope := (fn*sumXY - sumX*sumY) / den
	intercept := (sumY - slope*sumX) / fn
	y := intercept + slope*float64(n-1+lead)
	if y < 0 || math.IsNaN(y) || math.IsInf(y, 0) {
		if y > 0 { // +Inf
			return samples[n-1]
		}
		return 0
	}
	return y
}

// sizeFor is the replica count that serves `load` at `perInstance` demand
// each: ceil(load / perInstance), never negative.
func sizeFor(load, perInstance float64) int {
	if load <= 0 {
		return 0
	}
	return int(math.Ceil(load / perInstance))
}
