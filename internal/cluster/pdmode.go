package cluster

// PDMode selects how one LLM request's prefill and decode phases are placed.
type PDMode int

const (
	// PDAuto lets the service's placement policy pick per request (the
	// zero value).
	PDAuto PDMode = iota
	// PDColocated runs both phases back to back on one GPU; no KV handoff.
	PDColocated
	// PDDisaggregated runs prefill and decode on a prefill and a decode
	// worker, shipping the prompt's KV cache between them over the data
	// plane.
	PDDisaggregated
)

// String names the mode for stats tables and span attributes.
func (m PDMode) String() string {
	switch m {
	case PDAuto:
		return "auto"
	case PDColocated:
		return "colocated"
	case PDDisaggregated:
		return "disaggregated"
	default:
		return "invalid"
	}
}
