package jsonx

// StdlibStrict is the encoding/json reference decoder, for the external
// test package, whose request types this package cannot import.
var StdlibStrict = stdlibStrict
