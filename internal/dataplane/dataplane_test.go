package dataplane

import (
	"testing"
	"time"
	"unsafe"
)

// TestFnCtxSize pins the function context in Go's 64 B size class: callers
// allocate one per Put or Get, and at 72 B (separate SLO and compute-time
// fields) it took an 80 B slot.
func TestFnCtxSize(t *testing.T) {
	if got := unsafe.Sizeof(FnCtx{}); got != 64 {
		t.Errorf("FnCtx is %d B, want 64 (the 64 B size class; 65 to 80 B take an 80 B slot)", got)
	}
}

func TestStatsAddControl(t *testing.T) {
	var s Stats
	s.AddControl(3, 10*time.Microsecond)
	s.AddControl(1, 5*time.Microsecond)
	if s.ControlOps != 4 {
		t.Errorf("ops = %d", s.ControlOps)
	}
	if s.ControlCPU != 35*time.Microsecond {
		t.Errorf("cpu = %v", s.ControlCPU)
	}
}
