package service

import (
	"encoding/json"
	"io"
)

// EncodeJSON writes v as JSON with a trailing newline. json.Encoder
// marshals the whole value before its single write, so a marshalling
// error never leaves a half-written response on the wire.
func EncodeJSON(w io.Writer, v any) error {
	return json.NewEncoder(w).Encode(v)
}

// DecodeJSON parses one JSON value from r into v, rejecting unknown
// fields.
func DecodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
