package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// durationToken matches a time.Duration as String formats it ("1h2m3.5s",
// "4m0s", "1.5s", "12ms", "850µs", "3ns").
var durationToken = regexp.MustCompile(`\b(?:\d+h)?(?:\d+m)?\d+(?:\.\d+)?(?:s|ms|µs|ns)\b`)

// normalizeOutput drops what varies between runs of the same code: every
// duration token becomes "<T>", and each line's runs of whitespace (the
// table padding, which follows the widest duration in a column) collapse
// to one space.
func normalizeOutput(s string) []string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, line := range lines {
		lines[i] = strings.Join(strings.Fields(durationToken.ReplaceAllString(line, "<T>")), " ")
	}
	return lines
}

// TestExperimentsOutputGolden reruns the whole paper reproduction with the
// experiments command's default seed and compares it with the committed
// experiments_output.txt at the repository root, after normalizing both.
// Everything but wall time must match: Table 1 agreement, the Theorem 1–4
// SAT/UNSAT splits, action and interleaving counts, and the search node
// counts behind them, so an engine change that moves search effort fails
// here until the file is regenerated. UPDATE_EXPERIMENTS_OUTPUT=1 rewrites
// the file from this run's raw output.
func TestExperimentsOutputGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAll(Config{Seed: 2026, Out: &buf}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", "..", "experiments_output.txt")
	if os.Getenv("UPDATE_EXPERIMENTS_OUTPUT") == "1" {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, want := normalizeOutput(buf.String()), normalizeOutput(string(raw))
	shown := 0
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g == w {
			continue
		}
		if shown++; shown > 10 {
			t.Errorf("… further lines differ")
			break
		}
		t.Errorf("line %d:\n  got:  %s\n  want: %s", i+1, g, w)
	}
	if shown > 0 {
		t.Log("rerun with UPDATE_EXPERIMENTS_OUTPUT=1 if the change is intended")
	}
}
