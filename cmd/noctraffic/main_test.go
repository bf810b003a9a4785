package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gonoc/internal/scenario"
	"gonoc/internal/server"
)

// small keeps every in-process run short.
var small = []string{"-warmup", "100", "-measure", "300", "-drain", "3000"}

// runCLI drives the command in process and returns its exit code,
// stdout and stderr.
func runCLI(t *testing.T, args ...string) (int, []byte, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.Bytes(), stderr.String()
}

// mustRun is runCLI that fails the test on a non-zero exit.
func mustRun(t *testing.T, args ...string) []byte {
	t.Helper()
	code, out, errOut := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("noctraffic %s: exit %d\n%s", strings.Join(args, " "), code, errOut)
	}
	return out
}

// serverResult submits a scenario document to an in-process nocserver
// and returns the result bytes once the run is done.
func serverResult(t *testing.T, ts *httptest.Server, doc []byte) []byte {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	var st struct{ ID, State, Error string }
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(60 * time.Second)
	for st.State != "done" {
		if st.State == "failed" || time.Now().After(deadline) {
			t.Fatalf("server run %s ended %q: %s", st.ID, st.State, st.Error)
		}
		time.Sleep(10 * time.Millisecond)
		resp, err := http.Get(ts.URL + "/v1/runs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err = http.Get(ts.URL + "/v1/runs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFlagsScenarioServerIdentity is the round trip every mode must
// keep: the flag-only -json bytes equal the bytes of re-running its
// -save-scenario file and the server's cached result for that file.
// The server caps campaigns at one worker, so the campaign case also
// checks that the worker count stays out of the bytes.
func TestFlagsScenarioServerIdentity(t *testing.T) {
	srv := server.New(server.Config{Workers: 2, CampaignWorkers: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	cases := []struct {
		name string
		args []string
	}{
		{"single", []string{"-topology", "ring", "-nodes", "8", "-pattern", "bursty", "-readfrac", "0", "-qos"}},
		{"sweep", []string{"-topology", "mesh", "-nodes", "9", "-pattern", "hotspot", "-sweep", "-rates", "0.02,0.06"}},
		{"campaign", []string{"-nodes", "8", "-campaign", "-topologies", "crossbar,ring", "-patterns", "uniform",
			"-rates", "0.02,0.05", "-workers", "2"}},
		{"trans", []string{"-trans", "-rate", "0.1", "-warmup", "0"}},
		{"trans-wb", []string{"-trans", "-wb", "-hotspot-mem", "-payload", "16", "-mode", "saf"}},
	}
	dir := t.TempDir()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			file := filepath.Join(dir, tc.name+".scenario.json")
			args := append(append([]string{"-json", "-wall=false", "-save-scenario", file}, small...), tc.args...)
			flagsOut := mustRun(t, args...)
			if len(flagsOut) == 0 {
				t.Fatal("empty output")
			}
			fileOut := mustRun(t, "-scenario", file, "-json", "-wall=false")
			if !bytes.Equal(flagsOut, fileOut) {
				t.Fatalf("-scenario %s differs from the flag-only run:\n%s\nvs\n%s", file, fileOut, flagsOut)
			}
			doc, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if got := serverResult(t, ts, doc); !bytes.Equal(flagsOut, got) {
				t.Fatalf("server result differs from the flag-only run:\n%s\nvs\n%s", got, flagsOut)
			}
		})
	}
}

// TestTransAppliesFabricFlags: -qos and -mode reach a -trans run's
// fabric instead of being dropped. Every -trans master injects at the
// default priority, so QoS arbitration ties resolve round-robin and
// -qos alone cannot change the numbers; the check is that it lands in
// the document that runs. Store-and-forward does change them.
func TestTransAppliesFabricFlags(t *testing.T) {
	base := append([]string{"-trans", "-json", "-wall=false"}, small...)
	plain := mustRun(t, base...)
	if out := mustRun(t, append(base, "-mode", "saf")...); bytes.Equal(out, plain) {
		t.Error("-trans -mode saf printed the same result as -trans alone")
	}
	file := filepath.Join(t.TempDir(), "qos.scenario.json")
	mustRun(t, append(base, "-qos", "-save-scenario", file)...)
	sc, err := scenario.LoadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Fabric.QoS || sc.Workload.Kind != scenario.KindSoC {
		t.Errorf("-trans -qos ran a %s document with qos=%v", sc.Workload.Kind, sc.Fabric.QoS)
	}
}

// TestMisplacedFlagsFail: a flag that does not apply to the run is an
// error that names it, not a silent no-op.
func TestMisplacedFlagsFail(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.json")
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-trans", "-pattern", "hotspot"}, "-pattern"},
		{[]string{"-wb"}, "-wb"},
		{[]string{"-sweep", "-trace", trace}, "-trace"},
		{[]string{"-sweep", "-campaign"}, "-sweep and -campaign"},
		{[]string{"-topologies", "ring"}, "-topologies"},
		{[]string{"-scenario", "cpu-dma-display", "-nodes", "4"}, "-nodes"},
		{[]string{"-scenario", "hotspot-dram", "-trans"}, "-trans"},
	}
	for _, tc := range cases {
		code, _, errOut := runCLI(t, append(tc.args, small...)...)
		if code == 0 || !strings.Contains(errOut, tc.want) {
			t.Errorf("noctraffic %s: exit %d, stderr %q; want a failure naming %q",
				strings.Join(tc.args, " "), code, errOut, tc.want)
		}
	}
	if _, err := os.Stat(trace); err == nil {
		t.Error("a rejected run still wrote its trace file")
	}
}

// TestInvalidFlagValuesNameTheField: flag values land in the scenario
// document, so Validate rejects them with the field's JSON path.
func TestInvalidFlagValuesNameTheField(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-trans", "-rate", "1.5"}, "workload.masters[0].rate"},
		{[]string{"-nodes", "1"}, "fabric.nodes"},
		{[]string{"-nodes", "70000"}, "fabric.nodes: 70000 exceeds 65534"},
		{[]string{"-trans", "-payload", "1028"}, "workload.masters[0].bytes: 1028 exceeds 1024"},
		{[]string{"-fidelity", "loose"}, "fabric.fidelity"},
		{[]string{"-sweep", "-rates", "0.02,-1"}, "measure.sweep_rates[1]"},
	}
	for _, tc := range cases {
		code, _, errOut := runCLI(t, append(tc.args, small...)...)
		if code != 1 || !strings.Contains(errOut, tc.want) {
			t.Errorf("noctraffic %s: exit %d, stderr %q; want exit 1 naming %q",
				strings.Join(tc.args, " "), code, errOut, tc.want)
		}
	}
}

// TestDeletedFlagsAreUnknown: the hybrid fallback tuning is constants,
// so its old flags are usage errors (exit 2), not silently ignored.
func TestDeletedFlagsAreUnknown(t *testing.T) {
	for _, name := range []string{"-loose-threshold", "-loose-hysteresis", "-loose-window"} {
		code, _, errOut := runCLI(t, append([]string{"-fidelity", "hybrid", name, "1"}, small...)...)
		if code != 2 || !strings.Contains(errOut, "flag provided but not defined: "+name) {
			t.Errorf("noctraffic %s 1: exit %d; want exit 2 naming the flag", name, code)
		}
	}
}
