package grouter

import (
	"grouter/internal/cluster"
	"grouter/internal/core"
	"grouter/internal/dataplane"
	"grouter/internal/faults"
	"grouter/internal/router"
	"grouter/internal/xfer"
)

// Typed error sentinels. Every Plane method that fails wraps one of these,
// so callers branch with errors.Is instead of matching message strings:
//
//	if err := plane.Get(p, ctx, ref); errors.Is(err, grouter.ErrGPUDown) {
//	    // the object's GPU crashed and recovery failed — re-run the producer
//	}
var (
	// ErrNotFound: Get of a data ID that was never Put or was already freed.
	ErrNotFound = dataplane.ErrNotFound
	// ErrEvicted: Put could not make room, even by spilling to host memory.
	ErrEvicted = dataplane.ErrEvicted
	// ErrGPUDown: a crash-lost object could not be re-materialized.
	ErrGPUDown = dataplane.ErrGPUDown
	// ErrPathsDown: a transfer gave up without delivering every byte — its
	// retries ran out with every path down or a path lost mid-flight.
	ErrPathsDown = xfer.ErrPathsDown
	// ErrAccessDenied: a function read data belonging to another workflow.
	ErrAccessDenied = core.ErrAccessDenied
	// ErrNoWorker: routing found no healthy placement (zero workers or
	// every candidate crashed); integrated routing falls back to
	// round-robin instead of surfacing it, so it is seen directly only by
	// router.RouteRequest callers.
	ErrNoWorker = router.ErrNoWorker
	// ErrSLOShed: SLO admission control dropped the request — no worker was
	// predicted to finish it inside its class latency budget and the
	// deferral bound was spent. Returned by App.Submit on an immediate
	// shed; deferred sheds instead fire the completion signal and count in
	// RouterStats.ShedLow/ShedHigh.
	ErrSLOShed = cluster.ErrSLOShed
	// ErrBadRequest: an invalid Request descriptor or DeployLLM
	// configuration (negative field, out-of-range mode, wrong model).
	ErrBadRequest = cluster.ErrBadRequest
	// ErrNilTrace: Replay of a nil arrival trace (an empty non-nil trace is
	// a valid no-op).
	ErrNilTrace = cluster.ErrNilTrace
	// ErrNegativeQuantum: a ReplaySpec admission quantum below zero.
	ErrNegativeQuantum = cluster.ErrNegativeQuantum
	// ErrUnknownLink: a FaultInjector call named a link the fabric lacks.
	ErrUnknownLink = faults.ErrUnknownLink
	// ErrBadWindow: a degrade fraction outside (0,1), or a flap without
	// 0 < downFor < period.
	ErrBadWindow = faults.ErrBadWindow
)
