package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestMetricsSchemaGolden compares the /metrics name inventory against a
// golden file. Dashboards and alerts key on these names; a rename or
// disappearance must show up as a reviewed diff, not as a silently empty
// graph. The server preregisters every metric it can emit, so the
// inventory is a property of the build — a short request sequence only
// confirms scraping works end to end. Regenerate with
// UPDATE_METRICS_SCHEMA=1 go test -run TestMetricsSchemaGolden ./internal/service/.
func TestMetricsSchemaGolden(t *testing.T) {
	handshake := readTestdataProgram(t, "handshake.evo")
	figure1 := readTestdataProgram(t, "figure1.evo")
	_, ts := newTestServer(t, Config{Workers: 1, CacheBytes: 1 << 20})

	// Exercise one fast-lane, one heavy, and one cached request plus the
	// two GET endpoints so the scrape reflects real traffic.
	postJSON(t, ts.URL+"/v1/analyze", map[string]any{"program": handshake, "all": true})
	postJSON(t, ts.URL+"/v1/analyze", map[string]any{"program": figure1, "all": true})
	postJSON(t, ts.URL+"/v1/analyze", map[string]any{"program": figure1, "all": true})
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}

	var lines []string
	for name := range snap.Counters {
		lines = append(lines, "counter "+name)
	}
	for name := range snap.Gauges {
		lines = append(lines, "gauge "+name)
	}
	for name, h := range snap.Histograms {
		lines = append(lines, fmt.Sprintf("histogram %s buckets=%d", name, len(h.Bounds)))
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	// Spot-check the families the load-shedding contract is phrased over
	// before diffing, so a failure names the missing piece directly.
	for _, want := range []string{
		"histogram " + MetricQueueWait + "_" + LaneFast,
		"histogram " + MetricQueueWait + "_" + LaneHeavy,
		"histogram " + MetricLatency + "_analyze",
		"histogram " + MetricExploredNodes,
		"counter " + MetricJobsShed,
		"counter " + MetricJobsThrottled,
		"gauge " + MetricShedMode,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("scrape is missing %q", want)
		}
	}

	goldenPath := filepath.Join("testdata", "metrics_schema.golden")
	if os.Getenv("UPDATE_METRICS_SCHEMA") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_METRICS_SCHEMA=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("metrics schema drifted from %s.\nGot:\n%s\nWant:\n%s\nIf the change is intentional, regenerate with UPDATE_METRICS_SCHEMA=1 and review the diff.",
			goldenPath, got, want)
	}
}
