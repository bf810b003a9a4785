package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
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

// TestDefaultFidelityKnob covers the operator-side default: scenarios
// without fabric.fidelity execute (and fingerprint) at the server's
// DefaultFidelity, explicit scenarios are untouched, and "cycle"
// leaves implicit submissions aliased with unconfigured servers.
func TestDefaultFidelityKnob(t *testing.T) {
	_, plain := newTestServer(t, Config{Workers: 1}, nil)
	_, hybrid := newTestServer(t, Config{Workers: 1, DefaultFidelity: "hybrid"}, nil)
	_, cycled := newTestServer(t, Config{Workers: 1, DefaultFidelity: "cycle"}, nil)

	implicit := fidelityScenarioBytes(t, "")
	plainID := submitID(t, plain, implicit)
	hybridID := submitID(t, hybrid, implicit)
	cycledID := submitID(t, cycled, implicit)

	if plainID == hybridID {
		t.Fatalf("DefaultFidelity=hybrid did not change the implicit scenario's run id (%s)", plainID)
	}
	if plainID != cycledID {
		t.Fatalf("DefaultFidelity=cycle re-keyed implicit submissions: %s vs %s", plainID, cycledID)
	}
	// The defaulted run executes to completion…
	waitState(t, hybrid, hybridID, stateDone)
	// …and an explicitly hybrid submission lands on the same cache
	// entry: same effective run, one id.
	resp := post(t, hybrid, fidelityScenarioBytes(t, "hybrid"))
	if hit := resp.Header.Get("X-Cache"); hit != "hit" {
		t.Fatalf("explicit hybrid after defaulted hybrid: X-Cache=%q, want hit (ids diverged)", hit)
	}
	readAll(t, resp)
	// An explicitly cycle-accurate submission must NOT inherit the
	// server default.
	if exactID := submitID(t, hybrid, fidelityScenarioBytes(t, "cycle")); exactID == hybridID {
		t.Fatalf("explicit cycle submission was rewritten to the server default (id %s)", exactID)
	}
}

// TestBadDefaultFidelityPanics pins the constructor contract: a typo'd
// operator knob (or the deleted "loose" level) fails loudly at startup,
// not quietly at submit time.
func TestBadDefaultFidelityPanics(t *testing.T) {
	for _, bad := range []string{"fast", "loose"} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("newServer accepted DefaultFidelity %q", bad)
				}
				if !strings.Contains(r.(string), bad) {
					t.Fatalf("panic %v does not name the bad value", r)
				}
			}()
			newServer(Config{DefaultFidelity: bad})
		}()
	}
}
