package metrics

// FaultStats counts fault-injection events and the recovery work the data
// path performed in response, for one simulation: each netsim.Network owns
// one, and every writer reaches it through that network. Injection counters
// are written by internal/faults, flow kills by internal/netsim, retry and
// re-plan counters by internal/xfer, and crash-recovery counters by the data
// planes.
type FaultStats struct {
	// LinksFailed / LinksRestored / LinksDegraded count injected link events.
	LinksFailed   int64
	LinksRestored int64
	LinksDegraded int64
	// MemPressure counts injected memory-pressure spikes.
	MemPressure int64
	// Crashes counts injected node/GPU crash events.
	Crashes int64

	// FlowsKilled counts in-flight flows terminated by a link failure.
	FlowsKilled int64
	// Retries counts transfer retry attempts after a flow failure.
	Retries int64
	// Replans counts path re-selections performed for a retry.
	Replans int64
	// DegradedBytes totals payload bytes that completed on a retry attempt
	// (i.e. moved over a fallback or re-planned path).
	DegradedBytes int64
	// TransfersFailed counts transfers that exhausted their retries.
	TransfersFailed int64

	// ObjectsLost counts stored objects invalidated by a crash;
	// Rematerialized counts the subset recovered on a later access.
	ObjectsLost    int64
	Rematerialized int64
}
