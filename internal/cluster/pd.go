package cluster

import (
	"fmt"
	"time"

	"grouter/internal/dataplane"
	"grouter/internal/fabric"
	"grouter/internal/harvest"
	"grouter/internal/metrics"
	"grouter/internal/models"
	"grouter/internal/obs"
	"grouter/internal/sim"
)

// Prefill/decode disaggregated LLM serving. An LLM request has two phases
// with opposite resource shapes (models.Serve): compute-bound prefill scaled
// by the prompt and bandwidth-bound decode scaled by the output. LLMService
// runs them either colocated (both phases in one GPU hold) or disaggregated —
// prefill on one GPU, the prompt's KV cache shipped to the decode GPU through
// the cluster's data plane (so coalescing, retry/replan, crash
// re-materialization, and obs spans all apply to the handoff), then decode.
//
// The service's own policy (decide) places every request: long-prompt
// requests go to prefill/decode worker pairs (prefill dominates their cost,
// and isolating it stops head-of-line blocking of short interactive
// requests), short ones to the mixed pool, with overflow fallback to
// colocated execution when PD capacity or the KV transfer path is
// saturated. All signals are virtual-time deterministic, so runs replay
// byte-identically.

// PDConfig sizes a DeployLLM service and tunes its placement policy.
type PDConfig struct {
	// LLM is the served model (required).
	LLM *models.LLM
	// PrefillWorkers/DecodeWorkers/MixedWorkers partition the cluster's GPUs
	// node-major: prefill pool first, then decode, then mixed (colocated)
	// workers. Prefill and decode counts must be both zero (pure colocated
	// service) or both positive.
	PrefillWorkers int
	DecodeWorkers  int
	MixedWorkers   int
	// DefaultOutTokens replaces a zero Request output length (default 32);
	// a zero prompt length becomes 512 tokens.
	DefaultOutTokens int
	// ZeroKV skips the data-plane handoff entirely (the KV cache ships for
	// free). It isolates transfer cost in experiments and drives the
	// zero-cost-transfer differential oracle.
	ZeroKV bool
	// LongPromptTokens is the disaggregation threshold: a PDAuto request at
	// or above it is split across a prefill/decode pair (default 1024).
	LongPromptTokens int
	// SaturationDepth is the per-worker load (compute-slot queue plus holds
	// plus placed requests not yet holding it) above which a pool counts as
	// saturated: PDAuto requests overflow to colocated execution instead of
	// queueing on a saturated pair, and a session's decode pin is abandoned
	// for the least-loaded decode worker (default 4).
	SaturationDepth int
}

const (
	// defaultPromptTokens is the prompt length of a Request that sets none.
	defaultPromptTokens = 512
	// maxInflightKV bounds concurrent KV handoffs on the data plane; at the
	// bound PDAuto requests overflow to colocated execution.
	maxInflightKV = 8
	// pdSLOScale sets a request's latency objective as a multiple of its
	// unloaded colocated service time; the KV handoff inherits the budget
	// as its transfer rate floor.
	pdSLOScale = 2
)

// PDStats counts an LLMService's placement and handoff activity. Every
// request is counted once in Colocated or Disaggregated, by the plan it ran.
type PDStats struct {
	Colocated     int64
	Disaggregated int64
	// Long/Short split the PDAuto requests by the LongPromptTokens
	// threshold; requests with an explicit mode are in neither.
	Long  int64
	Short int64
	// Overflows counts PDAuto long-prompt requests downgraded to colocated
	// because the PD pools or the transfer path were saturated.
	Overflows int64
	// Affinity counts disaggregated requests whose decode phase ran on
	// their session's pinned decode worker.
	Affinity int64
	// Recomputes counts KV handoffs that failed (evicted, crashed, lost) and
	// fell back to recomputing prefill on the decode GPU.
	Recomputes int64
	// KVTransfers/KVBytes count successful data-plane handoffs.
	KVTransfers int64
	KVBytes     int64
}

// LLMService is one deployed LLM serving app with prefill/decode phase
// execution. Deploy one with Cluster.DeployLLM.
type LLMService struct {
	C     *Cluster
	Cfg   PDConfig
	Model models.Serve
	Name  string

	// PrefillPool/DecodePool/MixedPool are the carved GPU worker pools.
	PrefillPool []fabric.Location
	DecodePool  []fabric.Location
	MixedPool   []fabric.Location

	// E2E records request latencies and TTFT time to first output token,
	// over every request the service ever completed, in bounded
	// distributions: exact up to metrics.DistCap samples, within 2^-10
	// after them (see metrics.Dist). Replay swaps in an empty E2E while it
	// runs, as App.Replay does with App.E2EClass. KVXfer keeps the running
	// mean of the data-plane KV handoff durations (disaggregated requests
	// with a successful transfer only).
	E2E    metrics.Dist
	TTFT   metrics.Dist
	KVXfer metrics.Mean

	Completed int
	Stats     PDStats

	// OnComplete, when non-nil, observes every completion (seq, instant,
	// e2e) in event context; it must not start simulation activity.
	OnComplete func(seq int64, at, e2e time.Duration)

	seq     int64
	pending map[fabric.Location]int
	// inflightKV counts the KV handoffs in flight on the data plane, the
	// placement policy's transfer-path saturation signal.
	inflightKV int
}

// DeployLLM carves the cluster's GPUs into prefill/decode/mixed pools and
// returns the serving app. The service assumes pre-warmed weights (the
// paper's default): phase costs come from models.Serve, queueing from the
// cluster's shared per-GPU compute slots.
func (c *Cluster) DeployLLM(cfg PDConfig) (*LLMService, error) {
	if cfg.LLM == nil {
		return nil, fmt.Errorf("%w: PDConfig.LLM is required", ErrBadRequest)
	}
	if cfg.PrefillWorkers < 0 || cfg.DecodeWorkers < 0 || cfg.MixedWorkers < 0 {
		return nil, fmt.Errorf("%w: negative worker count", ErrBadRequest)
	}
	if (cfg.PrefillWorkers == 0) != (cfg.DecodeWorkers == 0) {
		return nil, fmt.Errorf("%w: prefill and decode pools must be sized together (%d/%d)",
			ErrBadRequest, cfg.PrefillWorkers, cfg.DecodeWorkers)
	}
	total := cfg.PrefillWorkers + cfg.DecodeWorkers + cfg.MixedWorkers
	if total == 0 {
		return nil, fmt.Errorf("%w: no workers", ErrBadRequest)
	}
	capacity := len(c.gpus) * c.Fabric.Spec().NumGPUs
	if total > capacity {
		return nil, fmt.Errorf("%w: %d workers exceed %d cluster GPUs", ErrBadRequest, total, capacity)
	}
	if cfg.DefaultOutTokens <= 0 {
		cfg.DefaultOutTokens = 32
	}
	if cfg.LongPromptTokens <= 0 {
		cfg.LongPromptTokens = 1024
	}
	if cfg.SaturationDepth <= 0 {
		cfg.SaturationDepth = 4
	}
	s := &LLMService{
		C:       c,
		Cfg:     cfg,
		Model:   models.Serve{LLM: cfg.LLM, Class: c.Class},
		Name:    "llm/" + cfg.LLM.Name,
		pending: map[fabric.Location]int{},
	}
	// Node-major carve: prefill pool first, then decode, then mixed.
	locs := make([]fabric.Location, 0, total)
	for node := 0; node < len(c.gpus) && len(locs) < total; node++ {
		for g := 0; g < c.Fabric.Spec().NumGPUs && len(locs) < total; g++ {
			locs = append(locs, fabric.Location{Node: node, GPU: g})
		}
	}
	s.PrefillPool = locs[:cfg.PrefillWorkers]
	s.DecodePool = locs[cfg.PrefillWorkers : cfg.PrefillWorkers+cfg.DecodeWorkers]
	s.MixedPool = locs[cfg.PrefillWorkers+cfg.DecodeWorkers:]
	return s, nil
}

// SLO is the request's latency objective: twice its unloaded colocated
// service time.
func (s *LLMService) SLO(promptTokens, outTokens int) time.Duration {
	unloaded := s.Model.Prefill(promptTokens) + s.Model.Decode(outTokens)
	return time.Duration(pdSLOScale * float64(unloaded))
}

// load reports one worker's admission load: compute-slot queue plus holds
// plus decided-but-not-yet-acquired picks. It is the placement policy's
// least-loaded signal.
func (s *LLMService) load(loc fabric.Location) int {
	waiting, held := s.C.GPULoad(loc.Node, loc.GPU)
	return waiting + held + s.pending[loc]
}

// placement is one request's placement: the mode plus the chosen prefill
// and decode workers. A colocated request runs entirely on decode.
type placement struct {
	mode    PDMode
	prefill fabric.Location
	decode  fabric.Location
}

// leastLoaded picks the pool's lowest-load worker (lowest index on ties —
// the deterministic tie-break) and returns it with its load.
func (s *LLMService) leastLoaded(pool []fabric.Location) (fabric.Location, int) {
	best, bestLoad := pool[0], s.load(pool[0])
	for _, loc := range pool[1:] {
		if l := s.load(loc); l < bestLoad {
			best, bestLoad = loc, l
		}
	}
	return best, bestLoad
}

// decide places one request and counts the decision in Stats. A PDAuto
// request splits on the LongPromptTokens threshold and an explicit mode is
// honored. A disaggregated request takes the least-loaded prefill worker
// and its session's pinned decode worker (session id mod pool) while that
// worker is within SaturationDepth, else the least-loaded one. A PDAuto
// request overflows to the mixed pool instead of queueing on a saturated
// pair or transfer path. Colocated requests run on the least-loaded mixed
// worker, or on a prefill worker when the service has no mixed pool. It
// runs in event context.
func (s *LLMService) decide(req *Request) placement {
	wantPD := req.PD == PDDisaggregated
	if req.PD == PDAuto {
		if req.PromptTokens >= s.Cfg.LongPromptTokens {
			s.Stats.Long++
			wantPD = true
		} else {
			s.Stats.Short++
		}
	}
	depth := s.Cfg.SaturationDepth
	if wantPD && len(s.PrefillPool) > 0 {
		prefill, pLoad := s.leastLoaded(s.PrefillPool)
		decode, dLoad := s.leastLoaded(s.DecodePool)
		pinned := false
		if req.Session > 0 {
			loc := s.DecodePool[int(req.Session%int64(len(s.DecodePool)))]
			if l := s.load(loc); l <= depth {
				decode, dLoad, pinned = loc, l, true
			}
		}
		saturated := pLoad > depth || dLoad > depth || s.inflightKV >= maxInflightKV
		if req.PD != PDAuto || !saturated || len(s.MixedPool) == 0 {
			s.Stats.Disaggregated++
			if pinned {
				s.Stats.Affinity++
			}
			return placement{mode: PDDisaggregated, prefill: prefill, decode: decode}
		}
		s.Stats.Overflows++
	}
	pool := s.MixedPool
	if len(pool) == 0 {
		pool = s.PrefillPool
	}
	loc, _ := s.leastLoaded(pool)
	s.Stats.Colocated++
	return placement{mode: PDColocated, decode: loc}
}

// Submit starts one typed request and returns a signal fired at completion.
func (s *LLMService) Submit(req Request) (*sim.Signal, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if req.Model != "" && req.Model != s.Cfg.LLM.Name {
		return nil, fmt.Errorf("%w: model %q not served (service runs %q)",
			ErrBadRequest, req.Model, s.Cfg.LLM.Name)
	}
	done := sim.NewSignal(s.C.Engine)
	s.startReq(req, done)
	return done, nil
}

// pdReq is one in-flight request's working state.
type pdReq struct {
	svc    *LLMService
	req    Request
	seq    int64
	at     placement
	start  time.Duration
	done   *sim.Signal
	kv     int64
	slack  time.Duration // the KV handoff's FnCtx.Slack
	prefil time.Duration
	perTok time.Duration
	decode time.Duration
}

// startReq decides the request's placement and spawns its execution process.
// Runs in event context; the descriptor is trusted (Submit validates). It
// returns false: an LLMService sheds nothing.
func (s *LLMService) startReq(req Request, done *sim.Signal) bool {
	if req.PromptTokens <= 0 {
		req.PromptTokens = defaultPromptTokens
	}
	if req.OutTokens <= 0 {
		req.OutTokens = s.Cfg.DefaultOutTokens
	}
	s.seq++
	r := &pdReq{
		svc:    s,
		req:    req,
		seq:    s.seq,
		start:  s.C.Engine.Now(),
		done:   done,
		kv:     s.Model.KVBytes(req.PromptTokens),
		prefil: s.Model.Prefill(req.PromptTokens),
		perTok: s.Model.DecodePerToken(),
		decode: s.Model.Decode(req.OutTokens),
	}
	r.slack = harvest.Slack(s.SLO(req.PromptTokens, req.OutTokens), r.prefil+r.decode)
	r.at = s.decide(&r.req)
	s.pending[r.at.decode]++
	if r.at.mode == PDDisaggregated {
		s.pending[r.at.prefill]++
	}
	s.C.Engine.GoRun("llm-req", r)
	return false
}

// Run executes the request: one GPU hold for colocated, or
// prefill→handoff→decode for disaggregated.
func (r *pdReq) Run(p *sim.Proc) {
	s := r.svc
	c := s.C
	tr := obs.TracerOf(c.Engine)
	span := tr.BeginOn(obs.ReqTrack(r.seq), obs.CatRequest, s.Name)
	tr.SetAttrInt(span, "seq", r.seq)
	tr.SetAttrInt(span, "prompt", int64(r.req.PromptTokens))
	tr.SetAttrStr(span, "pd", r.at.mode.String())

	if r.at.mode == PDDisaggregated {
		r.runDisaggregated(p, tr)
	} else {
		r.runColocated(p, tr)
	}

	end := p.Now()
	s.E2E.Add(end - r.start)
	s.Completed++
	if s.OnComplete != nil {
		s.OnComplete(r.seq, end, end-r.start)
	}
	tr.End(span)
	if r.done != nil {
		r.done.Fire()
	}
}

// holdGPU acquires loc's compute slot at the request's QoS, retiring the
// pending pick, and returns the release closure plus the hold start.
func (r *pdReq) holdGPU(p *sim.Proc, loc fabric.Location) (*sim.Resource, time.Duration) {
	res := r.svc.C.resourceAt(loc)
	res.AcquirePri(p, int32(r.req.QoS))
	r.svc.pending[loc]--
	return res, p.Now()
}

// releaseGPU releases the hold and feeds the router's service-latency EWMA.
func (r *pdReq) releaseGPU(res *sim.Resource, loc fabric.Location, heldAt, now time.Duration) {
	res.Release()
	if c := r.svc.C; c.OnGPUService != nil {
		c.OnGPUService(loc.Node, loc.GPU, now-heldAt)
	}
}

// runColocated executes both phases in one hold on the decode worker.
func (r *pdReq) runColocated(p *sim.Proc, tr *obs.Tracer) {
	loc := r.at.decode
	res, heldAt := r.holdGPU(p, loc)
	cs := tr.BeginOn(obs.ReqTrack(r.seq), obs.CatCompute, "prefill")
	p.Sleep(r.prefil)
	tr.End(cs)
	p.Sleep(r.perTok)
	r.svc.TTFT.Add(p.Now() - r.start)
	cs = tr.BeginOn(obs.ReqTrack(r.seq), obs.CatCompute, "decode")
	p.Sleep(r.decode - r.perTok)
	tr.End(cs)
	r.releaseGPU(res, loc, heldAt, p.Now())
}

// runDisaggregated executes prefill on the prefill worker, ships the KV
// cache to the decode worker through the data plane, then decodes. The
// handoff rides the full data-plane path — Put on the prefill GPU inside its
// hold (transfers run within a function's execution turn), Get on the decode
// GPU inside its hold — so coalescing, retry/replan, and spans apply. A
// failed handoff (evicted, crashed) falls back to recomputing prefill on the
// decode GPU.
func (r *pdReq) runDisaggregated(p *sim.Proc, tr *obs.Tracer) {
	s := r.svc
	c := s.C

	// Prefill phase.
	res, heldAt := r.holdGPU(p, r.at.prefill)
	cs := tr.BeginOn(obs.ReqTrack(r.seq), obs.CatCompute, "prefill")
	p.Sleep(r.prefil)
	tr.End(cs)
	var ref dataplane.DataRef
	var putErr error
	if !s.Cfg.ZeroKV {
		pctx := dataplane.FnCtx{
			Fn: s.Name + "/prefill", Workflow: s.Name,
			Loc: r.at.prefill, Slack: r.slack,
			ConsumerSeq: r.seq,
		}
		s.inflightKV++
		ref, putErr = c.Plane.Put(p, &pctx, r.kv)
	}
	r.releaseGPU(res, r.at.prefill, heldAt, p.Now())

	// Decode phase: pull the KV cache at the decode GPU, recomputing the
	// prompt locally if the handoff cannot deliver it.
	res, heldAt = r.holdGPU(p, r.at.decode)
	if !s.Cfg.ZeroKV {
		recompute := putErr != nil
		if putErr == nil {
			dctx := dataplane.FnCtx{
				Fn: s.Name + "/decode", Workflow: s.Name,
				Loc: r.at.decode, Slack: r.slack,
				ConsumerSeq: r.seq,
			}
			t0 := p.Now()
			if err := c.Plane.Get(p, &dctx, ref); err != nil {
				recompute = true
			} else {
				s.KVXfer.Add(p.Now() - t0)
				s.Stats.KVTransfers++
				s.Stats.KVBytes += r.kv
			}
			c.Plane.Free(ref)
		}
		s.inflightKV--
		if recompute {
			s.Stats.Recomputes++
			cs := tr.BeginOn(obs.ReqTrack(r.seq), obs.CatCompute, "prefill-recompute")
			p.Sleep(r.prefil)
			tr.End(cs)
		}
	}
	p.Sleep(r.perTok)
	s.TTFT.Add(p.Now() - r.start)
	cs = tr.BeginOn(obs.ReqTrack(r.seq), obs.CatCompute, "decode")
	p.Sleep(r.decode - r.perTok)
	tr.End(cs)
	r.releaseGPU(res, r.at.decode, heldAt, p.Now())
}

// Replay admits one typed request per arrival (offsets relative to now,
// sorted ascending; spec.RequestAt describes each) and runs the engine until
// it drains, on the same replay driver as App.Replay: the same admission
// shapes, validation and per-replay percentiles. It records into an empty
// E2E and merges the earlier samples back in when it is done.
func (s *LLMService) Replay(arrivals []time.Duration, spec ReplaySpec) (ReplayStats, error) {
	return replay(s.C.Engine, s, arrivals, spec)
}

// served reports the service's completions; an LLMService sheds nothing.
func (s *LLMService) served() (completed, shed int) { return s.Completed, 0 }

// isolate swaps an empty E2E in for one replay; the function it returns
// reads the replay's P50 and P99, then merges the earlier samples back in.
func (s *LLMService) isolate() func() (p50, p99 time.Duration) {
	earlier := s.E2E
	s.E2E = metrics.Dist{}
	return func() (p50, p99 time.Duration) {
		p50, p99 = s.E2E.P(0.5), s.E2E.P(0.99)
		s.E2E.Merge(&earlier)
		return p50, p99
	}
}
