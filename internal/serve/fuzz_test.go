package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzSpecJSON feeds arbitrary bytes to the job description's decoder —
// the last JSON surface that takes untrusted input (POST /jobs). Whatever
// decodeSpec accepts goes through FillDefaults and Validate; a Spec they
// accept must compile with Config to a value or an error, never a panic,
// and must marshal back to a body that is accepted again.
func FuzzSpecJSON(f *testing.F) {
	for _, tc := range specRejects {
		f.Add([]byte(tc.body))
	}
	for _, body := range []string{
		`{}`,
		`{"method":"topk","theta":0.9,"drop_epoch":3}`,
		`{"backend":"ps","workers":4}`,
		`{"collective":"hier","group_size":4,"bucket_bytes":65536}`,
		`{"fault":true,"guard":true,"guard_crc":false,"chaos":{"corrupt":0.05,"crash_rank":1}}`,
		`{"staleness":4,"elastic_joins":[20],"heartbeat_ms":0.5,"chaos":{"straggle_rank":1,"straggle_by_ms":15}}`,
		`{"adapt":true,"model":"cnn","samples":64}`,
	} {
		f.Add([]byte(body))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeSpec(bytes.NewReader(body))
		if err != nil || spec.normalize() != nil {
			return
		}
		// Config builds the synthetic dataset, samples × features floats:
		// the decoder is the subject here, so large workloads stop short.
		if spec.Samples <= 4096 {
			_, _ = spec.Config()
		}
		again, err := json.Marshal(&spec)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		spec2, err := decodeSpec(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("accepted spec re-decodes to an error: %v\n%s", err, again)
		}
		if err := spec2.normalize(); err != nil {
			t.Fatalf("accepted spec is rejected after a round trip: %v\n%s", err, again)
		}
	})
}
