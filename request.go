package grouter

import "grouter/internal/cluster"

// Typed request submission. Request is the single submission path through
// façade, cluster, and router: build one with NewRequest and hand it to
// App.Submit or, for LLM serving, LLMService.Submit.
type (
	// Request is the typed descriptor of one submitted request (batch, QoS,
	// prompt/output lengths, session, PD placement mode, model).
	Request = cluster.Request
	// ReplaySpec configures App.Replay, the typed-request trace replay:
	// batched admission quantum plus a per-arrival Request constructor.
	ReplaySpec = cluster.ReplaySpec
	// PDMode selects how an LLM request's prefill and decode phases are
	// placed (see PDAuto/PDColocated/PDDisaggregated).
	PDMode = cluster.PDMode
)

// Prefill/decode placement modes for Request.PD.
const (
	// PDAuto lets the LLM service's placement policy pick per request (the
	// default).
	PDAuto = cluster.PDAuto
	// PDColocated runs both phases back to back on one GPU.
	PDColocated = cluster.PDColocated
	// PDDisaggregated splits the phases across prefill/decode workers with a
	// KV-cache handoff over the data plane.
	PDDisaggregated = cluster.PDDisaggregated
)

// RequestOption customizes one field of a Request built by NewRequest.
type RequestOption func(*Request)

// NewRequest builds a typed request descriptor. With no options it is the
// zero-value default request: the app's deployed batch size, QoSLow, service
// default prompt/output lengths, no session, PDAuto placement.
func NewRequest(opts ...RequestOption) Request {
	var r Request
	for _, o := range opts {
		o(&r)
	}
	return r
}

// ReqBatch overrides the app's deployed batch size for this request.
func ReqBatch(n int) RequestOption { return func(r *Request) { r.Batch = n } }

// ReqQoS sets the request's priority class.
func ReqQoS(q QoS) RequestOption { return func(r *Request) { r.QoS = q } }

// ReqPrompt sets the LLM prompt length in tokens (drives prefill time,
// KV-cache size, and the PD long-prompt split).
func ReqPrompt(tokens int) RequestOption {
	return func(r *Request) { r.PromptTokens = tokens }
}

// ReqOutput sets the LLM output length in decode tokens.
func ReqOutput(tokens int) RequestOption {
	return func(r *Request) { r.OutTokens = tokens }
}

// ReqSession tags the request with a conversation session; an LLM service
// pins a session's decode phases to one worker.
func ReqSession(id int64) RequestOption {
	return func(r *Request) { r.Session = id }
}

// ReqPD forces the prefill/decode placement mode instead of PDAuto.
func ReqPD(m PDMode) RequestOption { return func(r *Request) { r.PD = m } }

// ReqModel names the target LLM for model-checked services.
func ReqModel(name string) RequestOption {
	return func(r *Request) { r.Model = name }
}
