package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// resultLine runs the benchmark in process and decodes its last output
// line.
func resultLine(t *testing.T, args ...string) (int, map[string]any) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(append(args, "--scale", "tiny", "--seconds", "3", "--out", t.TempDir()), &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not a result: %v\n%s%s", args, err, out.String(), errOut.String())
	}
	return code, res
}

func TestEveryMetricIsEmittedWithAUnit(t *testing.T) {
	for w := range workloads {
		for trace, names := range map[string][]string{"0": endToEndNames, "1": perLayerNames} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				code, res := resultLine(t, "--workload", w, "--seed", "7", "--trace", trace)
				if code != 0 || res["correct"] != true || res["failed"].(float64) != 0 || res["attempted"].(float64) < 1 {
					t.Fatalf("exit %d, result %v", code, res)
				}
				metrics := res["metrics"].(map[string]any)
				if len(metrics) != len(names) {
					t.Errorf("%d metrics, want %d: %v", len(metrics), len(names), metrics)
				}
				for _, n := range names {
					m, ok := metrics[n].(map[string]any)
					if !ok {
						t.Errorf("metric %s missing", n)
						continue
					}
					if u, _ := m["unit"].(string); u == "" {
						t.Errorf("metric %s has no unit", n)
					}
					if _, ok := m["value"].(float64); !ok {
						t.Errorf("metric %s has no numeric value", n)
					}
				}
			})
		}
	}
}

func TestCorruptedOutputCheckFailsTheRun(t *testing.T) {
	for w := range workloads {
		t.Run(w, func(t *testing.T) {
			code, res := resultLine(t, "--workload", w, "--seed", "7", "--trace", "0", "--corrupt-check")
			if code == 0 || res["correct"] != false || res["failed"].(float64) < 1 {
				t.Fatalf("corrupted check not reported: exit %d, result %v", code, res)
			}
		})
	}
}

func TestBenchmarkJSONNamesMatch(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		sort.Strings(out)
		return strings.Join(out, ",")
	}
	sorted := func(xs []string) string {
		c := append([]string(nil), xs...)
		sort.Strings(c)
		return strings.Join(c, ",")
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %s, which the code does not have", w.Name)
		}
	}
	if len(spec.Workloads) < 2 {
		t.Errorf("BENCHMARK.json has %d workloads, want at least 2", len(spec.Workloads))
	}
	if got, want := names(spec.EndToEnd), sorted(endToEndNames); got != want {
		t.Errorf("end_to_end %s, want %s", got, want)
	}
	if got, want := names(spec.PerLayer), sorted(perLayerNames); got != want {
		t.Errorf("per_layer %s, want %s", got, want)
	}
}
