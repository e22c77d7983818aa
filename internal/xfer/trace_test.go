package xfer

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"grouter/internal/obs"
	"grouter/internal/sim"
)

// TestTracedTransferRetryAndReplan kills the NVLink path mid-transfer with a
// tracer attached: the transfer must retry, re-plan onto PCIe, and finish,
// and the export must contain the transfer span with its byte count plus the
// retry and replan instants.
func TestTracedTransferRetryAndReplan(t *testing.T) {
	e := sim.NewEngine()
	tr := obs.Attach(e)
	f := v100Fabric(e, 1)
	m := NewManager(f)
	n := f.Topo(0)
	direct := PathOf(f.Net, n.AppendNVLinkPathLinks(nil, []int{0, 3}))
	pcie := PathOf(f.Net, n.AppendPCIeP2PLinks(nil, 0, 3))
	// ~1ms transfer at 48 GB/s; the outage lands inside it.
	e.Schedule(500*time.Microsecond, func() {
		for _, id := range direct.Links {
			f.Net.FailLink(id)
		}
	})
	var err error
	e.Go("t", func(p *sim.Proc) {
		_, err = m.Transfer(p, Request{
			Label:  "retry-me",
			Bytes:  48 * MB,
			Paths:  []Path{direct},
			Track:  obs.ReqTrack(7),
			Replan: func(attempt int) []Path { return []Path{pcie} },
		})
	})
	e.Run(0)
	if err != nil {
		t.Fatalf("transfer did not survive the outage: %v", err)
	}
	var buf bytes.Buffer
	if exportErr := tr.Export(&buf); exportErr != nil {
		t.Fatalf("export: %v", exportErr)
	}
	out := buf.String()
	for _, want := range []string{
		`"name":"retry-me"`, `"cat":"transfer"`,
		`"name":"retry"`, `"attempt":1`,
		`"name":"replan"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %s", want)
		}
	}
	e.Close()
}
