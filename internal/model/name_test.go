package model_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"eventorder/internal/interp"
	"eventorder/internal/lang"
	"eventorder/internal/model"
)

// sprintfEventName is the fmt form of EventName, kept as the reference
// AppendEventName must reproduce.
func sprintfEventName(x *model.Execution, id model.EventID) string {
	e := &x.Events[id]
	proc := x.Procs[e.Proc].Name
	base := ""
	if e.Label != "" {
		base = e.Label + ":"
	}
	if e.IsSync() {
		return fmt.Sprintf("%se%d[%s %s(%s)]", base, id, proc, e.Kind, e.Obj)
	}
	return fmt.Sprintf("%se%d[%s compute×%d]", base, id, proc, len(e.Ops))
}

// TestAppendEventNameMatchesSprintf compares EventName and
// AppendEventName, appending after existing bytes, with the fmt form on
// every event of every testdata program's execution.
func TestAppendEventNameMatchesSprintf(t *testing.T) {
	programs, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.evo"))
	if err != nil || len(programs) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	for _, path := range programs {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := lang.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		res, err := interp.RunAvoidingDeadlock(prog, 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		x := res.X
		for e := range x.Events {
			id := model.EventID(e)
			want := sprintfEventName(x, id)
			if got := x.EventName(id); got != want {
				t.Errorf("%s: EventName(%d) = %q, want %q", path, e, got, want)
			}
			if got := string(x.AppendEventName([]byte("prefix "), id)); got != "prefix "+want {
				t.Errorf("%s: AppendEventName(%d) = %q, want %q", path, e, got, "prefix "+want)
			}
		}
	}
}
