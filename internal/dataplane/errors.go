package dataplane

import "errors"

// Sentinel errors returned by data-plane operations. They are re-exported
// through the grouter façade so callers can match with errors.Is instead of
// parsing internal error strings. (The transfer-level sentinel ErrPathsDown
// lives in internal/xfer and is likewise re-exported.)
var (
	// ErrNotFound is returned by Get for a DataRef that was never stored or
	// has already been freed.
	ErrNotFound = errors.New("dataplane: data not found")
	// ErrEvicted is returned when an object could not be held anywhere: the
	// eviction/spill path needed host memory and host memory was exhausted.
	ErrEvicted = errors.New("dataplane: eviction failed, host memory exhausted")
	// ErrGPUDown is returned by Get when the object's bytes were destroyed by
	// a GPU crash and re-materialization from the durable origin failed.
	ErrGPUDown = errors.New("dataplane: gpu down, object unrecoverable")
)
