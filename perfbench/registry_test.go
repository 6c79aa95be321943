package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The metrics a run prints must be exactly the ones BENCHMARK.json
// registers, with the same units, in the same order.
func TestMetricsMatchRegistry(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no registry next to the benchmark: %v", err)
	}
	type entry struct{ Name, Unit string }
	var reg struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &reg); err != nil {
		t.Fatal(err)
	}
	r := newPassResult()
	r.spans = &spans{}
	lg := &ledger{selfNS: map[string]float64{}, count: map[string]int64{}, busWait: &dist{}, durable: &durableCost{}}
	for _, c := range []struct {
		list string
		reg  []entry
		got  []metric
	}{
		{"end_to_end", reg.EndToEnd, r.endToEnd()},
		{"per_layer", reg.PerLayer, layerMetrics(r, r, lg)},
	} {
		if len(c.got) != len(c.reg) {
			t.Errorf("%s: the benchmark reports %d metrics, BENCHMARK.json registers %d", c.list, len(c.got), len(c.reg))
			continue
		}
		for i, m := range c.got {
			if m.name != c.reg[i].Name || m.unit != c.reg[i].Unit {
				t.Errorf("%s[%d]: reports %s (%s), registry has %s (%s)", c.list, i, m.name, m.unit, c.reg[i].Name, c.reg[i].Unit)
			}
		}
	}
}
