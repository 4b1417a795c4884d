package conformance

import "testing"

// TestServeCheckSeeds runs the online-service differential gate over
// seeded workloads — including the incremental-ingestion and re-probe
// phases — at two shard counts.
func TestServeCheckSeeds(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, shards := range []int{1, 4} {
			w := Workload{Records: 50, Seed: seed}
			if err := ServeCheck(w, Params{}, shards); err != nil {
				t.Errorf("shards=%d: %v", shards, err)
			}
		}
	}
}

// TestServeCheckLowThreshold stresses the gate where candidate sets are
// large and near-boundary pairs are common.
func TestServeCheckLowThreshold(t *testing.T) {
	w := Workload{Records: 60, Seed: 9, NearDupRate: 0.5}
	if err := ServeCheck(w, Params{Threshold: 0.5}, 4); err != nil {
		t.Error(err)
	}
}
