package server

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"gonoc/internal/scenario"
)

// fidelityScenarioBytes is testScenarioBytes with an explicit fidelity.
func fidelityScenarioBytes(t *testing.T, fid string) []byte {
	t.Helper()
	warm := int64(50)
	sc := &scenario.Scenario{
		Version:  scenario.Version,
		Name:     "server-fidelity-test",
		Seed:     3,
		Fabric:   scenario.Fabric{Topology: "ring", Nodes: 4, Fidelity: fid},
		Workload: scenario.Workload{Kind: scenario.KindPacket, Rate: 0.1},
		Measure:  scenario.Measure{Warmup: &warm, Measure: 300, Drain: 2000},
	}
	b, err := sc.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func submitID(t *testing.T, ts *httptest.Server, body []byte) string {
	t.Helper()
	resp := post(t, ts, body)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit got %d", resp.StatusCode)
	}
	return decodeStatus(t, resp).ID
}

// TestFidelityRunsAreDistinct is the cache-soundness conformance check
// for the fidelity knob: the same scenario at different fidelity modes
// must get different run ids (fidelity participates in
// scenario.Fingerprint), so the content-addressed cache can never
// serve an approximate result for an exact request — or vice versa.
func TestFidelityRunsAreDistinct(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2}, nil)

	ids := map[string]string{}
	for _, fid := range []string{"", "hybrid"} {
		id := submitID(t, ts, fidelityScenarioBytes(t, fid))
		for prev, other := range ids {
			if other == id {
				t.Fatalf("fidelity %q and %q share run id %s — the cache would alias them", fid, prev, id)
			}
		}
		ids[fid] = id
	}
	for fid, id := range ids {
		d := waitState(t, ts, id, stateDone)
		if d.State != string(stateDone) {
			t.Fatalf("fidelity %q run %s: %s", fid, id, d.Error)
		}
	}

	// Each cached entry answers only its own fidelity.
	for _, fid := range []string{"", "hybrid"} {
		resp := post(t, ts, fidelityScenarioBytes(t, fid))
		if hit := resp.Header.Get("X-Cache"); hit != "hit" {
			t.Fatalf("fidelity %q resubmission: X-Cache=%q, want hit", fid, hit)
		}
		readAll(t, resp)
	}
}
