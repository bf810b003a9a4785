package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
)

// ParseError is a malformed-document error with the position of the
// problem: syntax errors, wrong types, unknown fields, trailing
// content. Load returns it (wrapped) so callers that present errors
// structurally — the nocserver 400 body — can extract line and column
// with errors.As instead of re-parsing the message.
type ParseError struct {
	Line, Col int
	Msg       string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

// Load reads, decodes, and validates one scenario. Errors carry either
// the line:column of the malformed JSON (syntax errors, wrong types,
// unknown fields — so a typoed field name is caught, not silently
// ignored; a *ParseError via errors.As) or the JSON path of the
// offending field (validation; a *FieldError).
func Load(r io.Reader) (*Scenario, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", describeJSONError(data, err))
	}
	// A scenario file is one document; trailing content is a merge
	// accident worth naming.
	if dec.More() {
		line, col := lineCol(data, dec.InputOffset())
		return nil, fmt.Errorf("scenario: %w",
			&ParseError{Line: line, Col: col, Msg: "trailing content after the scenario document"})
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile is Load on a file path, with the path in every error.
func LoadFile(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	s, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Resolve is the lookup every CLI shares: a built-in name returns a
// deep copy from the registry, anything else is loaded as a file path,
// and the error for a miss lists the built-ins.
func Resolve(arg string) (*Scenario, error) {
	if s, ok := Get(arg); ok {
		return s, nil
	}
	if _, err := os.Stat(arg); err != nil {
		return nil, fmt.Errorf("scenario %q is neither a built-in (%s) nor a readable file",
			arg, strings.Join(Names(), ", "))
	}
	return LoadFile(arg)
}

// Save writes the scenario as indented JSON — the exact form Load
// reads, so Load∘Save is the identity on validated scenarios.
func (s *Scenario) Save(w io.Writer) error {
	b, err := s.Canonical()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// SaveFile is Save onto a file path.
func (s *Scenario) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if err := s.Save(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}

// describeJSONError turns encoding/json's errors into positioned
// *ParseError form. Syntax and type errors carry byte offsets; the
// unknown-field error (from DisallowUnknownFields) carries only the
// field's name, so it is positioned at the first key in the document
// that names no field of the schema type it sits in (unknownKey), which
// is the key the decoder rejected.
func describeJSONError(data []byte, err error) error {
	switch e := err.(type) {
	case *json.SyntaxError:
		line, col := lineCol(data, e.Offset)
		return &ParseError{Line: line, Col: col, Msg: e.Error()}
	case *json.UnmarshalTypeError:
		line, col := lineCol(data, e.Offset)
		field := e.Field
		if field == "" {
			field = "document"
		}
		return &ParseError{Line: line, Col: col,
			Msg: fmt.Sprintf("%s: cannot decode JSON %s into %s", field, e.Value, e.Type)}
	}
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		line, col := lineCol(data, int64(len(data)))
		return &ParseError{Line: line, Col: col, Msg: "unexpected end of file (unbalanced braces?)"}
	}
	if strings.HasPrefix(err.Error(), "json: unknown field ") {
		dec := json.NewDecoder(bytes.NewReader(data))
		line, col := lineCol(data, unknownKey(dec, data, reflect.TypeFor[Scenario]()))
		return &ParseError{Line: line, Col: col,
			Msg: fmt.Sprintf("%s (not part of scenario schema version %d; see docs/SCENARIOS.md)",
				strings.TrimPrefix(err.Error(), "json: "), Version)}
	}
	return err
}

// unknownKey consumes the next value from dec, decoded into type t (nil:
// no schema below this point), and returns the byte offset of the
// opening quote of the first key inside it that names no field of the
// struct it fills, or len(data) if there is none. Walking the tokens
// alongside the schema finds a name that is a field of one object where
// it is unknown in another, and compares a key written with escapes as
// decoded.
func unknownKey(dec *json.Decoder, data []byte, t reflect.Type) int64 {
	none := int64(len(data))
	tok, err := dec.Token()
	delim, ok := tok.(json.Delim)
	if err != nil || !ok {
		return none
	}
	for t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	for dec.More() {
		var elem reflect.Type
		if delim == '{' {
			// Only whitespace and a comma lie between the previous
			// token and the key's opening quote.
			start := dec.InputOffset()
			start += int64(bytes.IndexByte(data[start:], '"'))
			key, err := dec.Token()
			if err != nil {
				return none
			}
			if t != nil && t.Kind() == reflect.Struct {
				if elem = fieldType(t, key.(string)); elem == nil {
					return start
				}
			}
		} else if t != nil && t.Kind() == reflect.Slice {
			elem = t.Elem()
		}
		if off := unknownKey(dec, data, elem); off < none {
			return off
		}
	}
	dec.Token() // the closing delimiter
	return none
}

// fieldType returns the type of struct t's field that encoding/json
// decodes key into — the field whose json tag names key, or failing
// that one whose tag matches it under case folding — or nil if there is
// none. Every schema field carries a json tag and none is embedded.
func fieldType(t reflect.Type, key string) reflect.Type {
	var folded reflect.Type
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == key {
			return f.Type
		}
		if folded == nil && strings.EqualFold(name, key) {
			folded = f.Type
		}
	}
	return folded
}

// lineCol converts a byte offset into 1-based line and column.
func lineCol(data []byte, offset int64) (line, col int) {
	if offset > int64(len(data)) {
		offset = int64(len(data))
	}
	prefix := data[:offset]
	line = 1 + bytes.Count(prefix, []byte{'\n'})
	if i := bytes.LastIndexByte(prefix, '\n'); i >= 0 {
		col = int(offset) - i
	} else {
		col = int(offset) + 1
	}
	return line, col
}
