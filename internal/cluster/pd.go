package cluster

import (
	"fmt"
	"time"

	"grouter/internal/dataplane"
	"grouter/internal/fabric"
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
// When a disaggregated decision lands both phases on the same GPU the
// executor collapses to the colocated path: the handoff would cost zero, so
// the two plans are byte-identical by construction (the differential oracle
// in pd_test.go pins this).

// PDDecision is one routing decision: the placement mode plus the chosen
// prefill and decode workers. Colocated runs entirely on Decode.
type PDDecision struct {
	Mode    PDMode
	Prefill fabric.Location
	Decode  fabric.Location
	// Overflow marks a decision the policy downgraded to colocated because
	// PD capacity or the transfer path was saturated.
	Overflow bool
}

// PDRouteFn decides one request's placement; seq is the service-local
// admission sequence number. It runs in event context and must be
// deterministic in virtual time. The PD router (internal/router) installs
// its policy here; without one the service round-robins.
type PDRouteFn func(req *Request, seq int64) PDDecision

// PDConfig sizes a DeployLLM service.
type PDConfig struct {
	// LLM is the served model (required).
	LLM *models.LLM
	// TP is the tensor-parallel degree per phase (0/1 = single GPU).
	TP int
	// PrefillWorkers/DecodeWorkers/MixedWorkers partition the cluster's GPUs
	// node-major: prefill pool first, then decode, then mixed (colocated)
	// workers. Prefill and decode counts must be both zero (pure colocated
	// service) or both positive.
	PrefillWorkers int
	DecodeWorkers  int
	MixedWorkers   int
	// DefaultPromptTokens/DefaultOutTokens replace zero Request lengths
	// (defaults 512/32).
	DefaultPromptTokens int
	DefaultOutTokens    int
	// SLOScale sets a request's latency objective as a multiple of its
	// unloaded colocated service time (default 2); the KV handoff inherits
	// the remaining budget as its transfer rate floor.
	SLOScale float64
	// ZeroKV skips the data-plane handoff entirely (the KV cache ships for
	// free). It isolates transfer cost in experiments and drives the
	// zero-cost-transfer differential oracle.
	ZeroKV bool
}

// PDStats counts an LLMService's placement and handoff activity.
type PDStats struct {
	// Colocated/Disaggregated count requests by executed plan; Collapsed
	// counts disaggregated decisions that landed both phases on one GPU and
	// ran the colocated plan. Collapsed requests are also in Colocated.
	Colocated     int64
	Disaggregated int64
	Collapsed     int64
	Overflows     int64
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

	// Route, when non-nil, decides every request's placement (the PD router
	// installs itself here).
	Route PDRouteFn

	// E2E records request latencies and TTFT time to first output token,
	// over every request the service ever completed, in bounded
	// distributions: exact up to metrics.DistCap samples, within 2^-10
	// after them (see metrics.Dist). KVXfer keeps the running mean of the
	// data-plane KV handoff durations (disaggregated requests with a
	// successful transfer only).
	E2E    metrics.Dist
	TTFT   metrics.Dist
	KVXfer metrics.Mean

	Completed int
	Stats     PDStats

	// OnComplete, when non-nil, observes every completion (seq, instant,
	// e2e) in event context; it must not start simulation activity.
	OnComplete func(seq int64, at, e2e time.Duration)

	seq        int64
	pending    map[fabric.Location]int
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
	if cfg.DefaultPromptTokens <= 0 {
		cfg.DefaultPromptTokens = 512
	}
	if cfg.DefaultOutTokens <= 0 {
		cfg.DefaultOutTokens = 32
	}
	if cfg.SLOScale <= 0 {
		cfg.SLOScale = 2
	}
	s := &LLMService{
		C:       c,
		Cfg:     cfg,
		Model:   models.Serve{LLM: cfg.LLM, Class: c.Class, TP: cfg.TP},
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

// SLO is the request's latency objective: SLOScale × its unloaded colocated
// service time.
func (s *LLMService) SLO(promptTokens, outTokens int) time.Duration {
	unloaded := s.Model.Prefill(promptTokens) + s.Model.Decode(outTokens)
	return time.Duration(s.Cfg.SLOScale * float64(unloaded))
}

// Load reports one worker's admission load: compute-slot queue plus holds
// plus decided-but-not-yet-acquired picks. It is the PD routing policy's
// least-loaded signal.
func (s *LLMService) Load(loc fabric.Location) int {
	waiting, held := s.C.GPULoad(loc.Node, loc.GPU)
	return waiting + held + s.pending[loc]
}

// InflightKV reports how many KV handoffs are currently in flight on the
// data plane — the routing policy's transfer-path saturation signal.
func (s *LLMService) InflightKV() int { return s.inflightKV }

// defaultRoute is the policy used when no router is installed: mixed-pool
// round-robin for auto/colocated, pool round-robin for disaggregated, and
// the opposite pool when the requested one does not exist.
func (s *LLMService) defaultRoute(req *Request, seq int64) PDDecision {
	rr := func(pool []fabric.Location) fabric.Location {
		return pool[int(seq%int64(len(pool)))]
	}
	wantPD := req.PD == PDDisaggregated
	if req.PD == PDAuto {
		wantPD = len(s.MixedPool) == 0
	}
	if wantPD && len(s.PrefillPool) > 0 {
		return PDDecision{Mode: PDDisaggregated, Prefill: rr(s.PrefillPool), Decode: rr(s.DecodePool)}
	}
	if len(s.MixedPool) > 0 {
		return PDDecision{Mode: PDColocated, Decode: rr(s.MixedPool)}
	}
	// Colocated request on a PD-only service: run both phases on a prefill
	// worker.
	return PDDecision{Mode: PDColocated, Decode: rr(s.PrefillPool)}
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
	dec    PDDecision
	start  time.Duration
	done   *sim.Signal
	kv     int64
	slo    time.Duration
	prefil time.Duration
	perTok time.Duration
	decode time.Duration
}

// startReq decides the request's placement and spawns its execution process.
// Runs in event context; the descriptor is trusted (Submit validates).
func (s *LLMService) startReq(req Request, done *sim.Signal) {
	if req.PromptTokens <= 0 {
		req.PromptTokens = s.Cfg.DefaultPromptTokens
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
		slo:    s.SLO(req.PromptTokens, req.OutTokens),
		prefil: s.Model.Prefill(req.PromptTokens),
		perTok: s.Model.DecodePerToken(),
		decode: s.Model.Decode(req.OutTokens),
	}
	if s.Route != nil {
		r.dec = s.Route(&r.req, r.seq)
	} else {
		r.dec = s.defaultRoute(&r.req, r.seq)
	}
	if r.dec.Overflow {
		s.Stats.Overflows++
	}
	// Same-GPU disaggregated decisions collapse: the handoff costs zero, so
	// the colocated plan is the same plan without the no-op transfer.
	if r.dec.Mode == PDDisaggregated && r.dec.Prefill == r.dec.Decode {
		r.dec.Mode = PDColocated
		s.Stats.Collapsed++
	}
	s.pending[r.dec.Decode]++
	if r.dec.Mode == PDDisaggregated {
		s.pending[r.dec.Prefill]++
		s.Stats.Disaggregated++
	} else {
		s.Stats.Colocated++
	}
	s.C.Engine.GoRun("llm-req", r)
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
	tr.SetAttrStr(span, "pd", r.dec.Mode.String())

	if r.dec.Mode == PDDisaggregated {
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

// runColocated executes both phases in one hold on dec.Decode.
func (r *pdReq) runColocated(p *sim.Proc, tr *obs.Tracer) {
	loc := r.dec.Decode
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

// runDisaggregated executes prefill on dec.Prefill, ships the KV cache to
// dec.Decode through the data plane, then decodes. The handoff rides the
// full data-plane path — Put on the prefill GPU inside its hold (transfers
// run within a function's execution turn), Get on the decode GPU inside its
// hold — so coalescing, retry/replan, and spans apply. A failed handoff
// (evicted, crashed) falls back to recomputing prefill on the decode GPU.
func (r *pdReq) runDisaggregated(p *sim.Proc, tr *obs.Tracer) {
	s := r.svc
	c := s.C

	// Prefill phase.
	res, heldAt := r.holdGPU(p, r.dec.Prefill)
	cs := tr.BeginOn(obs.ReqTrack(r.seq), obs.CatCompute, "prefill")
	p.Sleep(r.prefil)
	tr.End(cs)
	var ref dataplane.DataRef
	var putErr error
	if !s.Cfg.ZeroKV {
		pctx := dataplane.FnCtx{
			Fn: s.Name + "/prefill", Workflow: s.Name,
			Loc: r.dec.Prefill, SLO: r.slo, InferLatency: r.prefil + r.decode,
			ConsumerSeq: r.seq,
		}
		s.inflightKV++
		ref, putErr = c.Plane.Put(p, &pctx, r.kv)
	}
	r.releaseGPU(res, r.dec.Prefill, heldAt, p.Now())

	// Decode phase: pull the KV cache at the decode GPU, recomputing the
	// prompt locally if the handoff cannot deliver it.
	res, heldAt = r.holdGPU(p, r.dec.Decode)
	if !s.Cfg.ZeroKV {
		recompute := putErr != nil
		if putErr == nil {
			dctx := dataplane.FnCtx{
				Fn: s.Name + "/decode", Workflow: s.Name,
				Loc: r.dec.Decode, SLO: r.slo, InferLatency: r.prefil + r.decode,
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
	r.releaseGPU(res, r.dec.Decode, heldAt, p.Now())
}

// Replay admits one typed request per arrival (offsets relative to now,
// sorted ascending; spec.RequestAt describes each) and runs the engine until
// it drains, with the same admission shapes, validation and per-replay
// percentiles as App.Replay.
func (s *LLMService) Replay(arrivals []time.Duration, spec ReplaySpec) (ReplayStats, error) {
	if arrivals == nil {
		return ReplayStats{}, ErrNilTrace
	}
	if spec.Quantum < 0 {
		return ReplayStats{}, ErrNegativeQuantum
	}
	e := s.C.Engine
	base := e.Now()
	before := s.Completed
	lat, restore := replayDist(&s.OnComplete)
	defer restore()
	reqAt := spec.RequestAt
	admitTrace(e, base, arrivals, spec.Quantum, func(i int) {
		var req Request
		if reqAt != nil {
			req = reqAt(i)
		}
		s.startReq(req, nil)
	})
	e.Run(0)
	st := ReplayStats{
		Requests:  len(arrivals),
		Completed: s.Completed - before,
		Duration:  e.Now() - base,
		P50:       lat.P(0.5),
		P99:       lat.P(0.99),
	}
	if st.Duration > 0 {
		st.Throughput = float64(st.Completed) / st.Duration.Seconds()
	}
	return st, nil
}
