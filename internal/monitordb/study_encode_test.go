package monitordb_test

import (
	"bytes"
	"testing"

	"failscope/internal/dcsim"
	"failscope/internal/monitordb"
)

// TestEncodeStudyMatchesJSONOnly encodes the small study's monitoring
// database through Encode and the json-only reference: identical bytes,
// and no record handed to json.Marshal.
func TestEncodeStudyMatchesJSONOnly(t *testing.T) {
	field, err := dcsim.Generate(dcsim.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	fb0 := monitordb.EncodeFallbacks()
	var got, want bytes.Buffer
	if err := field.Monitor.Encode(&got); err != nil {
		t.Fatal(err)
	}
	if err := monitordb.EncodeJSONOnly(field.Monitor, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("study dump differs from the json-only encoding (%d vs %d bytes)", got.Len(), want.Len())
	}
	if fb := monitordb.EncodeFallbacks() - fb0; fb != 0 {
		t.Fatalf("%d study records fell back to json.Marshal", fb)
	}
}
