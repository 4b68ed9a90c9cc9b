package server

import "testing"

// TestQueueOptionDefaults pins the validated default for the one dispatch
// queue capacity the server has.
func TestQueueOptionDefaults(t *testing.T) {
	for in, want := range map[int]int{0: 1024, 32: 32, -5: 1024} {
		if o := (Options{WriteQueue: in}).withDefaults(); o.WriteQueue != want {
			t.Errorf("WriteQueue %d defaults to %d, want %d", in, o.WriteQueue, want)
		}
	}
}
