package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"github.com/tipprof/tip/internal/fleet"
)

// FuzzJobSpec decodes POST /v1/jobs bodies the way handleSubmit does and,
// for every body normalize accepts, checks that normalize is idempotent,
// that the granularity comes out in its canonical spelling, and that the
// coordinator's route key of the raw body equals the key of the normalized
// spec, so specs sharing a capture hash to one home node however they are
// spelled.
func FuzzJobSpec(f *testing.F) {
	for _, body := range []string{
		`{"bench":"imagick","scale":200000,"profilers":["TIP"]}`,
		`{"bench":"mcf","granularity":"Function"}`,
		`{"bench":"mcf","seed":0,"granularity":"FUNCTION","profilers":["tip","nci"]}`,
		`{"bench":"x264","seed":3,"granularity":"Basic-Block","replay_workers":4}`,
		`{"bench":"gcc","granularity":"block","target_samples":256}`,
		`{"bench":"mcf","sampled":true,"window_interval":65536,"warmup_auto":true,"window_workers":99}`,
		`{"cores":[{"bench":"mcf","scale":100000},{"bench":"x264","seed":2}],"profilers":["TIP"]}`,
		`{"bench":"mcf"} trailing`,
		`{"BENCH":"lbm","Seed":5}`,
		`{"bench":"nope"}`,
		`{}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec JobSpec
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&spec); err != nil {
			return
		}
		kinds, gran, err := spec.normalize()
		if err != nil {
			return
		}
		switch spec.Granularity {
		case "instruction", "block", "function":
		default:
			t.Fatalf("normalize left granularity %q", spec.Granularity)
		}

		again := spec
		again.Profilers = slices.Clone(spec.Profilers)
		again.Cores = slices.Clone(spec.Cores)
		kinds2, gran2, err := again.normalize()
		if err != nil {
			t.Fatalf("normalized spec %+v rejected: %v", spec, err)
		}
		if !reflect.DeepEqual(again, spec) || !slices.Equal(kinds2, kinds) || gran2 != gran {
			t.Fatalf("normalize is not idempotent:\n once  %+v\n twice %+v", spec, again)
		}

		rawKey, err := fleet.RouteKey(body)
		if err != nil {
			// The decoder stops after the first JSON value; the
			// coordinator rejects a body with anything after it.
			if json.Valid(body) {
				t.Fatalf("route key of an accepted body: %v", err)
			}
			return
		}
		norm, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		normKey, err := fleet.RouteKey(norm)
		if err != nil {
			t.Fatalf("route key of the normalized spec %s: %v", norm, err)
		}
		if rawKey != normKey {
			t.Fatalf("raw body routes to %q, normalized spec to %q", rawKey, normKey)
		}
	})
}
