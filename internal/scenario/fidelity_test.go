package scenario

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"gonoc/internal/transport"
)

// Schema-evolution coverage for the fidelity fields: the new knobs must
// be strictly validated like every older field — unknown spellings
// rejected with position, malformed values rejected with a field path,
// and well-formed values surviving Load∘Save unchanged.

func fidelityPacket(fabricExtra string) string {
	return strings.Replace(minimalPacket(),
		`"nodes": 8`, `"nodes": 8, `+fabricExtra, 1)
}

func TestFidelityLoadErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string // substring the error must contain
	}{
		{"unknown fidelity value",
			fidelityPacket(`"fidelity": "fast"`),
			`fabric.fidelity: unknown fidelity "fast"`},
		{"deleted loose fidelity",
			fidelityPacket(`"fidelity": "loose"`),
			`fabric.fidelity: unknown fidelity "loose" (want cycle|hybrid)`},
		{"misspelled fidelity field with position",
			fidelityPacket(`"fidelty": "hybrid"`),
			`unknown field "fidelty"`},
		{"threshold above one",
			fidelityPacket(`"fidelity": "hybrid", "loose_threshold": 1.5`),
			"fabric.loose_threshold: 1.5 outside [0,1]"},
		{"negative threshold",
			fidelityPacket(`"fidelity": "hybrid", "loose_threshold": -0.2`),
			"fabric.loose_threshold"},
		{"hysteresis above one",
			fidelityPacket(`"fidelity": "hybrid", "loose_hysteresis": 2`),
			"fabric.loose_hysteresis: 2 outside [0,1]"},
		{"negative window",
			fidelityPacket(`"fidelity": "hybrid", "loose_window": -64`),
			"fabric.loose_window: -64 is negative"},
		{"threshold of wrong type with position",
			fidelityPacket(`"fidelity": "hybrid", "loose_threshold": "high"`),
			"4:"},
		{"loose tuning without the knob",
			fidelityPacket(`"loose_threshold": 0.5`),
			"fabric.loose_threshold: loose tuning set without fidelity"},
		{"loose tuning on explicit cycle",
			fidelityPacket(`"fidelity": "cycle", "loose_window": 128`),
			"loose tuning set without fidelity"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(strings.NewReader(tc.doc))
			if err == nil {
				t.Fatalf("Load accepted malformed document:\n%s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the offence (want substring %q)", err, tc.want)
			}
		})
	}
}

// TestFidelityRoundTrip pins Load∘Save as the identity on scenarios
// carrying each fidelity level, with and without explicit tuning.
func TestFidelityRoundTrip(t *testing.T) {
	docs := []string{
		fidelityPacket(`"fidelity": "hybrid"`),
		fidelityPacket(`"fidelity": "hybrid", "loose_threshold": 0.25, "loose_hysteresis": 0.6, "loose_window": 512`),
		fidelityPacket(`"fidelity": "cycle"`),
	}
	for _, doc := range docs {
		s, err := Load(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("Load:\n%s\n%v", doc, err)
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatalf("Save: %v", err)
		}
		back, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("Load(Save(s)): %v", err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("round trip changed the scenario:\n%s", buf.String())
		}
	}
}

// TestFidelityLowers pins the schema→NetConfig mapping, including the
// strings the engine parses and the zero-value defaults it fills.
func TestFidelityLowers(t *testing.T) {
	s, err := Load(strings.NewReader(fidelityPacket(
		`"fidelity": "hybrid", "loose_threshold": 0.25, "loose_window": 512`)))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.PacketConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Net.Fidelity != transport.FidelityHybrid {
		t.Fatalf("fidelity lowered to %v", cfg.Net.Fidelity)
	}
	if cfg.Net.LooseThreshold != 0.25 || cfg.Net.LooseWindow != 512 {
		t.Fatalf("loose tuning lost in lowering: %+v", cfg.Net)
	}
}
