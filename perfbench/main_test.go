package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func briefOptions(t *testing.T, workload string, trace int) options {
	return options{workload: workload, seed: 7, seconds: 0.4, trace: trace, out: t.TempDir(), tmp: t.TempDir()}
}

func checkMetrics(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
		}
	}
}

func TestWorkloadsEndToEnd(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl, func(t *testing.T) {
			res, err := run(briefOptions(t, wl, 0), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, endToEnd)
			for _, d := range endToEnd {
				if v := res.Metrics[d.name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", d.name, v)
				}
			}
		})
	}
}

func TestWorkloadsTraced(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl, func(t *testing.T) {
			o := briefOptions(t, wl, 1)
			res, err := run(o, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, perLayer)
			if u := res.Metrics["unattributed_share"].Value; u < 0 || u > 1 {
				t.Errorf("unattributed_share = %v, want within [0, 1]", u)
			}
			data, err := os.ReadFile(filepath.Join(o.out, wl+"-seed7.trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatalf("trace file: %v", err)
			}
			if len(tf.TraceEvents) == 0 || len(tf.Budget.Rungs) == 0 || tf.Workload != wl {
				t.Errorf("trace file: %d events, %d budget rungs, workload %q",
					len(tf.TraceEvents), len(tf.Budget.Rungs), tf.Workload)
			}
		})
	}
}

// TestSeedMakesInputs checks that the inputs are a function of the seed.
func TestSeedMakesInputs(t *testing.T) {
	a, b, c := newLocalRPC(3), newLocalRPC(3), newLocalRPC(4)
	if !reflect.DeepEqual(a.streams, b.streams) || a.ctxName != b.ctxName {
		t.Error("same seed gave different local-rpc inputs")
	}
	if reflect.DeepEqual(a.streams, c.streams) {
		t.Error("different seeds gave the same local-rpc inputs")
	}
	g1, g2 := newGlobalSharded(3), newGlobalSharded(3)
	if !reflect.DeepEqual(g1.preload, g2.preload) || g1.own != g2.own || !reflect.DeepEqual(g1.snapSets, g2.snapSets) {
		t.Error("same seed gave different global-sharded inputs")
	}
	s1, s2 := newStatusStream(3), newStatusStream(3)
	if !reflect.DeepEqual(s1.order, s2.order) || !reflect.DeepEqual(s1.sizes, s2.sizes) {
		t.Error("same seed gave different status-stream schedules")
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names the workloads and
// metrics this program reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := newWorkload(w.Name, 1); err != nil || w.Why == "" {
			t.Errorf("BENCHMARK.json workload %q: %v, why %q", w.Name, err, w.Why)
		}
	}
	same := func(list string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", list, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", list, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, m := range spec.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v not in (0, 0.25]", m.Name, m.Bound)
		}
	}
}
