package monitordb

// DecodeJSONOnly exposes the json.Unmarshal-only reference decoder to the
// external benchmarks in this directory.
var DecodeJSONOnly = decodeJSONOnly

// EncodeJSONOnly exposes the json.Encoder-only reference encoder to the
// external tests and benchmarks in this directory.
var EncodeJSONOnly = encodeJSONOnly

// EncodeFallbacks reads the count of records Encode handed to json.Marshal.
func EncodeFallbacks() int64 { return encodeFallbacks.Load() }
