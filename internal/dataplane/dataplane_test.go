package dataplane

import (
	"testing"
	"time"
)

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
