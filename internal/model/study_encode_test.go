package model_test

import (
	"bytes"
	"testing"

	"failscope/internal/dcsim"
	"failscope/internal/model"
)

// TestEncodeStudyMatchesJSONOnly encodes the small study's dataset through
// Encode and the json-only reference: identical bytes, and no record
// handed to json.Marshal.
func TestEncodeStudyMatchesJSONOnly(t *testing.T) {
	field, err := dcsim.Generate(dcsim.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	fb0 := model.EncodeFallbacks()
	var got, want bytes.Buffer
	if err := field.Data.Encode(&got); err != nil {
		t.Fatal(err)
	}
	if err := model.EncodeJSONOnly(field.Data, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("study dump differs from the json-only encoding (%d vs %d bytes)", got.Len(), want.Len())
	}
	if fb := model.EncodeFallbacks() - fb0; fb != 0 {
		t.Fatalf("%d study records fell back to json.Marshal", fb)
	}
}
