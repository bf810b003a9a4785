package obs_test

import (
	"testing"

	"gonoc/internal/obs"
	"gonoc/internal/obs/metrics"
)

// TestSamplesBuffers pins which probes keep a fabric awake: only a
// probe that reads buffer samples, and a fan-out holding one.
func TestSamplesBuffers(t *testing.T) {
	collector := metrics.NewFabricCollector(metrics.NewRegistry())
	for _, tc := range []struct {
		name  string
		probe obs.Probe
		want  bool
	}{
		{"nil", nil, false},
		{"probe without the method", &obs.CountingProbe{}, true},
		{"collector", collector, false},
		{"span recorder", &obs.SpanRecorder{}, false},
		{"link monitor", obs.NewLinkMonitor(0), true},
		{"collector and link monitor", obs.Multi(collector, obs.NewLinkMonitor(0)), true},
		{"collector and span recorder", obs.Multi(collector, &obs.SpanRecorder{}), false},
	} {
		if got := obs.SamplesBuffers(tc.probe); got != tc.want {
			t.Errorf("%s: SamplesBuffers = %v, want %v", tc.name, got, tc.want)
		}
	}
}
