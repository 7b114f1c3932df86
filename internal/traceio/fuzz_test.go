package traceio

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"eventorder/internal/gen"
	"eventorder/internal/model"
)

// saveBytes serializes x, failing the test on error.
func saveBytes(t testing.TB, x *model.Execution) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveExecution(&buf, x); err != nil {
		t.Fatalf("SaveExecution: %v", err)
	}
	return buf.Bytes()
}

// corpus is gen.Corpus, failing the test on error.
func corpus(t testing.TB) []*model.Execution {
	t.Helper()
	xs, err := gen.Corpus()
	if err != nil {
		t.Fatalf("generator: %v", err)
	}
	return xs
}

// TestRoundTripGenerated checks Save→Load→Save byte-for-byte stability on
// every corpus execution and two larger traces (the serialization is
// canonical: sorted semaphore names, dense ids, deterministic map
// encoding). Each is decoded by the one-pass path, not the fallback, both
// as SaveExecution writes it and compacted as a json.RawMessage request
// field carries it, into the execution the reference decode returns.
func TestRoundTripGenerated(t *testing.T) {
	ring, err := gen.Barrier(5)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := gen.ForkJoinTree(5)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range append(corpus(t), ring, tree) {
		first := saveBytes(t, x)
		loaded, err := LoadExecution(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("corpus %d: LoadExecution: %v", i, err)
		}
		second := saveBytes(t, loaded)
		if !bytes.Equal(first, second) {
			t.Errorf("corpus %d: round trip not canonical:\nfirst:  %s\nsecond: %s", i, first, second)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, first); err != nil {
			t.Fatal(err)
		}
		for form, b := range map[string][]byte{"indented": first, "compact": compact.Bytes()} {
			got, onePass, err := load(bytes.NewReader(b))
			if err != nil {
				t.Fatalf("corpus %d %s: %v", i, form, err)
			}
			if !onePass {
				t.Errorf("corpus %d %s: decoded by the fallback, not the one-pass path", i, form)
			}
			want, err := loadReference(bytes.NewReader(b))
			if err != nil {
				t.Fatalf("corpus %d %s: reference decode: %v", i, form, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("corpus %d %s: one-pass execution differs from the reference decode", i, form)
			}
		}
	}
}

// FuzzRoundTrip generates an execution from fuzzed generator parameters and
// requires Save→Load→Save to be the identity on bytes.
func FuzzRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(3), uint8(1), uint8(1), uint8(2))
	f.Add(int64(7), uint8(3), uint8(5), uint8(2), uint8(2), uint8(0))
	f.Add(int64(42), uint8(4), uint8(2), uint8(0), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, procs, ops, sems, events, vars uint8) {
		rng := rand.New(rand.NewSource(seed))
		x, err := gen.Random(rng, gen.RandomOptions{
			Procs:      2 + int(procs%4),
			OpsPerProc: 1 + int(ops%5),
			Sems:       int(sems % 3),
			SemInit:    1,
			Events:     int(events % 3),
			Vars:       int(vars % 3),
			MaxTries:   16,
		})
		if err != nil {
			t.Skip("no completable execution for these parameters")
		}
		first := saveBytes(t, x)
		loaded, err := LoadExecution(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("LoadExecution rejected its own output: %v\n%s", err, first)
		}
		second := saveBytes(t, loaded)
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip not canonical:\nfirst:  %s\nsecond: %s", first, second)
		}
	})
}

// FuzzLoadExecution feeds arbitrary (truncated, bit-flipped, hostile) bytes
// to LoadExecution: it must return a descriptive error or a valid
// execution, never panic. Accepted inputs must re-serialize and re-load.
func FuzzLoadExecution(f *testing.F) {
	for _, x := range corpus(f) {
		b := saveBytes(f, x)
		var compact bytes.Buffer
		if err := json.Compact(&compact, b); err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(compact.Bytes())
		f.Add(b[:len(b)/2])           // truncated
		f.Add(bytes.TrimSpace(b[1:])) // decapitated
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":1,"procs":[{"name":"p","ops":[0],"parent":-1,"forkOp":-1}],` +
		`"events":[{"proc":9,"kind":"nop","ops":[0]}],"ops":[{"proc":0,"event":0,"kind":"nop"}],"order":[0]}`))
	f.Add([]byte(`{"version":1,"procs":[{"name":"p","ops":[0],"parent":-1,"forkOp":-1}],` +
		`"events":[{"proc":0,"kind":"nop","ops":[99]}],"ops":[{"proc":0,"event":0,"kind":"nop"}],"order":[0]}`))
	f.Add([]byte(`{"version":1,"procs":[],"events":[],"ops":[],"order":[]}`))
	// An empty op list after a non-empty one must still decode to nil.
	f.Add([]byte(`{"version":1,"procs":[{"name":"p","ops":[0],"parent":-1,"forkOp":-1},` +
		`{"name":"q","ops":[],"parent":-1,"forkOp":-1}],` +
		`"events":[{"proc":0,"kind":"nop","ops":[0]}],"ops":[{"proc":0,"event":0,"kind":"nop"}],"order":[0]}`))
	f.Add([]byte(`{"version":1,"procs":[{"name":"p","ops":[0],"parent":-1,"forkOp":-1}],` +
		`"events":[{"proc":0,"kind":"nop","ops":[0]}],"ops":[{"proc":0,"event":0,"kind":"nop"}],` +
		`"eventVars":{"e":true},"order":[0]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The one-pass path may refuse anything, but what it accepts the
		// reference decode must accept, into the same execution.
		if fast, ok := decodeCanonical(string(data)); ok {
			ref, err := loadReference(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("one-pass decode accepted what the reference rejects (%v):\n%s", err, data)
			}
			if !reflect.DeepEqual(fast, ref) {
				t.Fatalf("one-pass decode differs from the reference:\n%s\none-pass:  %+v\nreference: %+v", data, fast, ref)
			}
		}
		// The prefix decoder consumes one object, which is valid JSON and
		// which decodeCanonical alone decodes into the same execution.
		if pre, n, ok := DecodeCanonicalPrefix(string(data)); ok {
			obj := data[:n]
			if !json.Valid(obj) || obj[n-1] != '}' {
				t.Fatalf("prefix decode consumed %q, not one JSON object", obj)
			}
			if whole, ok := decodeCanonical(string(obj)); !ok || !reflect.DeepEqual(pre, whole) {
				t.Fatalf("prefix decode of %q differs from decodeCanonical (accepted: %v)", obj, ok)
			}
		}
		x, err := LoadExecution(bytes.NewReader(data))
		if err != nil {
			if !strings.Contains(err.Error(), "traceio:") && !strings.Contains(err.Error(), "model:") {
				t.Errorf("error lacks package context: %v", err)
			}
			return
		}
		// Anything Load accepts must survive a save/load cycle.
		b := saveBytes(t, x)
		if _, err := LoadExecution(bytes.NewReader(b)); err != nil {
			t.Fatalf("re-load of accepted input failed: %v", err)
		}
	})
}
