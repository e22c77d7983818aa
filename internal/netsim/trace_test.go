package netsim

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"grouter/internal/obs"
	"grouter/internal/sim"
	"grouter/internal/topology"
)

// TestTracedFlowLifecycles drives every flow outcome with a tracer attached
// and checks each lands in the export: completion, mid-flight failure,
// dead-path rejection, plus re-rate instants and the active-flow counter.
func TestTracedFlowLifecycles(t *testing.T) {
	e := sim.NewEngine()
	tr := obs.Attach(e)
	n := testNet(e, 100, 100)
	e.Go("driver", func(p *sim.Proc) {
		a := n.Start("flow-a", []topology.LinkID{0}, 1000, Options{})
		p.Sleep(2 * time.Second)
		// Contends with a on l1: both get re-rated.
		b := n.Start("flow-b", []topology.LinkID{0}, 500, Options{})
		a.Done().Wait(p)
		b.Done().Wait(p)

		d := n.Start("flow-d", []topology.LinkID{1}, 800, Options{})
		p.Sleep(time.Second)
		n.FailLink(1) // kills d mid-flight
		d.Done().Wait(p)

		// l2 is still down: a new flow over it dies at birth.
		n.Start("flow-dead", []topology.LinkID{1}, 100, Options{})
	})
	run(t, e)

	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		`"outcome":"completed"`,
		`"outcome":"failed"`,
		`"outcome":"dead-path"`,
		`"name":"rerate"`,
		`"name":"flows-active"`,
		`"transferred"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %s", want)
		}
	}
}
