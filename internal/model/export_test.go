package model

// DecodeJSONOnly exposes the json.Unmarshal-only reference decoder to the
// external benchmarks in this directory.
var DecodeJSONOnly = decodeJSONOnly
