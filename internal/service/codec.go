package service

import (
	"encoding/json"
	"errors"
	"io"
)

// EncodeJSON writes v as JSON with a trailing newline. json.Encoder
// marshals the whole value before its single write, so a marshalling
// error never leaves a half-written response on the wire.
func EncodeJSON(w io.Writer, v any) error {
	return json.NewEncoder(w).Encode(v)
}

// DecodeJSON parses one JSON value from r into v, rejecting unknown
// fields and anything but whitespace after the value: json.Unmarshal, which
// fupermod-route reads the tenant with, refuses trailing data too, so a
// body the router cannot route is one the service does not serve.
func DecodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("unexpected data after the JSON value")
	}
	return nil
}
