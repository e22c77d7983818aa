package cluster

import (
	"errors"
	"testing"
	"time"

	"grouter/internal/scheduler"
	"grouter/internal/sim"
	"grouter/internal/topology"
	"grouter/internal/workflow"
)

// TestRequestValidation covers every Validate rejection plus the valid zero
// value; Submit must surface the same sentinels.
func TestRequestValidation(t *testing.T) {
	cases := []struct {
		name string
		req  Request
	}{
		{"negative batch", Request{Batch: -1}},
		{"low QoS", Request{QoS: QoSLow - 1}},
		{"high QoS", Request{QoS: QoSHigh + 1}},
		{"negative prompt", Request{PromptTokens: -1}},
		{"negative output", Request{OutTokens: -8}},
		{"negative session", Request{Session: -3}},
		{"low PD mode", Request{PD: PDAuto - 1}},
		{"high PD mode", Request{PD: PDDisaggregated + 1}},
	}
	for _, tc := range cases {
		if err := tc.req.Validate(); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: Validate = %v, want ErrBadRequest", tc.name, err)
		}
	}
	if err := (Request{}).Validate(); err != nil {
		t.Errorf("zero request: Validate = %v, want nil", err)
	}

	e := sim.NewEngine()
	defer e.Close()
	c := New(e, topology.DGXV100(), 1, grouterPlane)
	app := c.Deploy(workflow.Driving(), 0, scheduler.Options{Node: -1})
	if _, err := app.Submit(Request{Batch: -1}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("Submit invalid = %v, want ErrBadRequest", err)
	}
}

// TestReplayValidation: each replay misuse maps to its typed sentinel.
func TestReplayValidation(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	c := New(e, topology.DGXV100(), 1, grouterPlane)
	app := c.Deploy(workflow.Driving(), 0, scheduler.Options{Node: -1})

	if _, err := app.Replay(nil, ReplaySpec{}); !errors.Is(err, ErrNilTrace) {
		t.Errorf("Replay nil trace = %v, want ErrNilTrace", err)
	}
	if _, err := app.Replay([]time.Duration{}, ReplaySpec{Quantum: -time.Second}); !errors.Is(err, ErrNegativeQuantum) {
		t.Errorf("Replay negative quantum = %v, want ErrNegativeQuantum", err)
	}
	st, err := app.Replay([]time.Duration{}, ReplaySpec{})
	if err != nil || st.Requests != 0 {
		t.Errorf("empty trace: st=%+v err=%v, want valid no-op", st, err)
	}
}
