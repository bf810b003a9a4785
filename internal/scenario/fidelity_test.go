package scenario

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"gonoc/internal/transport"
)

// Schema-evolution coverage for the fidelity field: it must be strictly
// validated like every older field — unknown spellings rejected with
// position, malformed values rejected with a field path, and
// well-formed values surviving Load∘Save unchanged. The hybrid fallback
// tuning is constants of internal/transport, not fields.

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
		// The loose_* tuning fields are deleted: a document that still
		// carries one, well-formed or not, fails on the field's name.
		{"threshold above one",
			fidelityPacket(`"fidelity": "hybrid", "loose_threshold": 1.5`),
			`unknown field "loose_threshold"`},
		{"negative threshold",
			fidelityPacket(`"fidelity": "hybrid", "loose_threshold": -0.2`),
			`unknown field "loose_threshold"`},
		{"hysteresis above one",
			fidelityPacket(`"fidelity": "hybrid", "loose_hysteresis": 2`),
			`unknown field "loose_hysteresis"`},
		{"negative window",
			fidelityPacket(`"fidelity": "hybrid", "loose_window": -64`),
			`unknown field "loose_window"`},
		{"threshold of wrong type with position",
			fidelityPacket(`"fidelity": "hybrid", "loose_threshold": "high"`),
			`unknown field "loose_threshold"`},
		{"loose tuning without the knob",
			fidelityPacket(`"loose_threshold": 0.5`),
			`unknown field "loose_threshold"`},
		{"loose tuning on explicit cycle",
			fidelityPacket(`"fidelity": "cycle", "loose_window": 128`),
			`unknown field "loose_window"`},
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
			var pe *ParseError
			if strings.HasSuffix(tc.name, "with position") && !errors.As(err, &pe) {
				t.Fatalf("error %q carries no line:column", err)
			}
		})
	}
}

// TestUnknownFieldPositionedAtKey: an unknown field's error points at
// the opening quote of its key, not at the end of the document. A
// string value spelled like the key, quotes and colon included, does
// not count; nor does the same name as a valid key of another object,
// nor a key the decoder matches to a field regardless of case; and a
// key written with escapes is found as decoded.
func TestUnknownFieldPositionedAtKey(t *testing.T) {
	for _, tc := range []struct {
		doc       string
		line, col int
	}{
		{fidelityPacket(`"fidelity": "hybrid", "loose_threshold": 1.5`), 4, 73},
		{`{"version": 1, "name": "x", "turbo": true}`, 1, 29},
		{`{"version": 1, "name": "turbo", "turbo": true}`, 1, 33},
		{`{"version": 1, "description": "a \"turbo\": b", "turbo": true}`, 1, 49},
		{"{\"version\": 1, \"name\": \"x\", \"fabric\": {\"topology\": \"crossbar\",\n  \"nodez\": 8}}", 2, 3},
		{`{"version": 1, "name": "t", "fabric": {"topology": "crossbar"},
  "workload": {"kind": "packet", "rate": 0.05},
  "measure": {"measure": 400, "rate": 3}}`, 3, 31},
		{`{"version": 1, "name": "x", "tur\u0062o": true}`, 1, 29},
		{`{"Version": 1, "name": "x", "turbo": true}`, 1, 29},
	} {
		_, err := Load(strings.NewReader(tc.doc))
		var pe *ParseError
		if !errors.As(err, &pe) || !strings.Contains(pe.Msg, "unknown field") {
			t.Fatalf("Load(%s) = %v, want an unknown-field *ParseError", tc.doc, err)
		}
		if pe.Line != tc.line || pe.Col != tc.col {
			t.Errorf("Load(%s) positions the unknown field at %d:%d, want %d:%d", tc.doc, pe.Line, pe.Col, tc.line, tc.col)
		}
	}
}

// TestFidelityRoundTrip pins Load∘Save as the identity on scenarios
// carrying each fidelity level.
func TestFidelityRoundTrip(t *testing.T) {
	docs := []string{
		fidelityPacket(`"fidelity": "hybrid"`),
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

// TestFidelityLowers pins the schema→NetConfig mapping of the string
// the engine parses.
func TestFidelityLowers(t *testing.T) {
	s, err := Load(strings.NewReader(fidelityPacket(`"fidelity": "hybrid"`)))
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
}
