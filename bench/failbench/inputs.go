package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"failscope"
	"failscope/internal/detect"
	"failscope/internal/obs"
	"failscope/internal/shard"
	"failscope/internal/stream"
)

// batchEvents is the POST /v1/events batch size every daemon workload uses.
const batchEvents = 1000

// studyFor returns the study the workloads' programs run: the small
// study's calibrated configuration with the benchmark seed (0 keeps the
// calibrated seed, as in every failscope command).
func studyFor(seed uint64) failscope.Study {
	st := failscope.SmallStudy()
	if seed != 0 {
		st.Generator.Seed = seed
	}
	return st
}

// streamInput is the ordered study event stream a daemon workload replays,
// pre-encoded into JSONL batches before any clock starts.
type streamInput struct {
	events  []stream.Event
	batches [][]byte
}

func genStream(field *failscope.FieldData) (*streamInput, error) {
	in := &streamInput{events: failscope.StreamEventsFromField(field)}
	for lo := 0; lo < len(in.events); lo += batchEvents {
		hi := min(lo+batchEvents, len(in.events))
		var b bytes.Buffer
		if err := stream.EncodeJSONL(&b, in.events[lo:hi]); err != nil {
			return nil, fmt.Errorf("encode batch: %w", err)
		}
		in.batches = append(in.batches, b.Bytes())
	}
	return in, nil
}

// newRouter builds the engines exactly as failscoped -scale small does: one engine per shard, each with its own online detector, shard
// gauges labelled when there is more than one.
func newRouter(st failscope.Study, shards int, o *obs.Observer) (*shard.Router, error) {
	engines := make([]*stream.Engine, shards)
	detectors := make([]*detect.Detector, shards)
	for i := range engines {
		detectors[i] = failscope.NewDetector(failscope.DetectorConfig{})
		cfg := stream.Config{
			Observation:      st.Generator.Observation,
			FineWindow:       st.Generator.FineWindow,
			MonitorEpoch:     st.Generator.MonitorEpoch,
			MonitorRetention: st.Generator.MonitorRetention,
			Observer:         o,
			Detector:         detectors[i],
		}
		if shards > 1 {
			cfg.GaugeLabel = fmt.Sprint(i)
		}
		var err error
		if engines[i], err = stream.NewEngine(cfg); err != nil {
			return nil, err
		}
	}
	return shard.New(shard.Options{Engines: engines, Detectors: detectors, Registry: o.Metrics()})
}

// reference holds the bodies a correct daemon serves once the whole stream
// is applied, computed in-process through the same public calls.
type reference struct {
	report, fidelity, alerts []byte
}

func buildReference(st failscope.Study, events []stream.Event, shards int) (reference, error) {
	rt, err := newRouter(st, shards, nil)
	if err != nil {
		return reference{}, err
	}
	defer rt.Close()
	for lo := 0; lo < len(events); lo += batchEvents {
		if err := rt.Apply(events[lo:min(lo+batchEvents, len(events))]); err != nil {
			return reference{}, err
		}
	}
	return readBodies(rt), nil
}

// readBodies encodes the read surface the way failscoped's handlers do.
func readBodies(rt *shard.Router) reference {
	snap := rt.Snapshot()
	return reference{
		report:   encodeJSON(snap),
		fidelity: encodeJSON(snap.Fidelity()),
		alerts:   encodeJSON(map[string]any{"seq": rt.Seq(), "detection": rt.Alerts()}),
	}
}

// encodeJSON matches failscoped's writeJSON: indented, newline-terminated.
func encodeJSON(v any) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	enc.Encode(v) // values here are plain data; encoding cannot fail
	return b.Bytes()
}

// normalizeReport drops the /v1/report fields that legitimately differ
// between a sharded and a single-engine daemon, as the CI shard-smoke job
// does: the four streaming Summary blocks (merged sketches are
// tolerance-equal, not bit-equal) and Spatial.MaxServersClass (argmax
// tie-break). Every count-derived section must still match exactly.
func normalizeReport(body []byte) ([]byte, error) {
	var top, rep map[string]json.RawMessage
	if err := json.Unmarshal(body, &top); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(top["report"], &rep); err != nil {
		return nil, err
	}
	drop := func(section, field string) error {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(rep[section], &m); err != nil {
			return fmt.Errorf("report.%s: %w", section, err)
		}
		delete(m, field)
		b, err := json.Marshal(m)
		rep[section] = b
		return err
	}
	for _, k := range []string{"InterFailurePM", "InterFailureVM", "RepairPM", "RepairVM"} {
		if err := drop(k, "Summary"); err != nil {
			return nil, err
		}
	}
	if err := drop("Spatial", "MaxServersClass"); err != nil {
		return nil, err
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return nil, err
	}
	top["report"] = b
	return json.Marshal(top)
}
