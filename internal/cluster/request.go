package cluster

import (
	"errors"
	"fmt"

	"grouter/internal/sim"
)

// Typed request submission. Request folds every per-request attribute into
// one typed descriptor, and Submit and Replay are the only ways to start
// work.

// Typed error sentinels for request and replay validation. Callers branch
// with errors.Is instead of matching message strings.
var (
	// ErrBadRequest: a Request field is out of range (negative batch, prompt,
	// output length or session, or an unknown PD mode).
	ErrBadRequest = errors.New("cluster: invalid request")
	// ErrNegativeQuantum: a replay admission quantum < 0 (zero means exact
	// per-arrival admission; negative used to silently alias it).
	ErrNegativeQuantum = errors.New("cluster: replay quantum must be >= 0")
	// ErrNilTrace: a replay was handed a nil arrival trace (an empty non-nil
	// trace is a valid no-op replay).
	ErrNilTrace = errors.New("cluster: nil arrival trace")
	// ErrUnsortedTrace: a replay's arrival offsets decrease somewhere. A
	// quantum replay would admit the early offset in a later window, and a
	// zero-quantum replay admits arrivals in trace order.
	ErrUnsortedTrace = errors.New("cluster: arrival offsets must not decrease")
)

// Request is the typed descriptor of one submitted request — the single
// submission path through façade, cluster, and router. Workflow apps consume
// Batch and QoS; LLM services additionally consume PromptTokens, OutTokens,
// Session, PD, and Model. The zero value is a valid default request
// everywhere.
type Request struct {
	// Batch overrides the app's deployed batch size; 0 uses the default.
	// LLM services ignore it.
	Batch int
	// QoS is the priority class carried into every GPU compute-slot
	// acquisition of the request.
	QoS QoS
	// PromptTokens is the LLM prompt length; it drives prefill time, KV-cache
	// size, and the LLM service's long-prompt split. 0 uses the service
	// default.
	PromptTokens int
	// OutTokens is the LLM output length (decode tokens). 0 uses the service
	// default.
	OutTokens int
	// Session groups requests of one conversation: an LLM service pins a
	// session's decode phases to one worker so its KV state stays put. 0
	// means no session.
	Session int64
	// PD selects the prefill/decode placement mode; PDAuto (the zero value)
	// lets the service's placement policy decide.
	PD PDMode
	// Model names the target LLM for model-checked services; empty means the
	// service's deployed model. Workflow apps ignore it.
	Model string
}

// Validate reports the first out-of-range field as a typed error wrapping
// ErrBadRequest.
func (r Request) Validate() error {
	switch {
	case r.Batch < 0:
		return fmt.Errorf("%w: negative batch %d", ErrBadRequest, r.Batch)
	case r.QoS < QoSLow || r.QoS > QoSHigh:
		return fmt.Errorf("%w: unknown QoS class %d", ErrBadRequest, r.QoS)
	case r.PromptTokens < 0:
		return fmt.Errorf("%w: negative prompt length %d", ErrBadRequest, r.PromptTokens)
	case r.OutTokens < 0:
		return fmt.Errorf("%w: negative output length %d", ErrBadRequest, r.OutTokens)
	case r.Session < 0:
		return fmt.Errorf("%w: negative session id %d", ErrBadRequest, r.Session)
	case r.PD < PDAuto || r.PD > PDDisaggregated:
		return fmt.Errorf("%w: unknown PD mode %d", ErrBadRequest, r.PD)
	}
	return nil
}

// Submit starts one request described by the typed descriptor and returns a
// signal fired at completion. When SLO admission control is installed (see
// AdmitFn) and sheds the request synchronously, Submit returns ErrSLOShed; a
// request shed after deferral instead fires its completion signal and counts
// in App.Shed.
func (a *App) Submit(req Request) (*sim.Signal, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	done := sim.NewSignal(a.C.Engine)
	if a.startReq(req, done) {
		return nil, ErrSLOShed
	}
	return done, nil
}
