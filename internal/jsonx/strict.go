package jsonx

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// canonical is a value with a reader of its own for the canonical form.
type canonical interface {
	// DecodeCanonical decodes data, one JSON value with no whitespace
	// around it, into the receiver and reports true, if data is in a form
	// the reader takes: the receiver then holds what encoding/json would
	// have made of data decoding into it. Otherwise it reports false and
	// leaves the receiver as it was.
	DecodeCanonical(data []byte) bool
}

// UnmarshalStrict decodes the JSON value in data into v the way a
// json.Decoder with DisallowUnknownFields does, and rejects anything but
// whitespace after that value, as json.Unmarshal does. A v with a reader of
// its own for the canonical form (see Canon) is offered the value first,
// which leaves it as encoding/json would; any value the reader does not
// take goes to the Decoder, which alone reports errors.
func UnmarshalStrict(data []byte, v any) error {
	if c, ok := v.(canonical); ok && c.DecodeCanonical(bytes.Trim(data, " \t\r\n")) {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return fmt.Errorf("invalid character %q after top-level value", rest[0])
	}
	return nil
}
