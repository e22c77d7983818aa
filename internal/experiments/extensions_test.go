package experiments

import (
	"sync"
	"testing"
)

// TestExtFaultsConcurrentRunsAgree runs the ext-faults table from several
// goroutines at once. Each run's retry, replan and degraded-byte counts
// belong to the network of its own simulation, so every concurrent table
// must equal a sequential run's.
func TestExtFaultsConcurrentRunsAgree(t *testing.T) {
	want := ExtFaults().Format()
	got := make([]string, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = ExtFaults().Format()
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("concurrent run %d differs from the sequential table:\n%s\nwant:\n%s", i, g, want)
		}
	}
}
