package jsonx

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// UnmarshalStrict decodes the JSON value in data into v the way a
// json.Decoder with DisallowUnknownFields does, and rejects anything but
// whitespace after that value, as json.Unmarshal does.
func UnmarshalStrict(data []byte, v any) error {
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
