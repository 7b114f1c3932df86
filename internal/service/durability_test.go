package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"eventorder/internal/core"
	"eventorder/internal/gen"
	"eventorder/internal/journal"
	"eventorder/internal/vfs"
)

// Durability tests run the server against an in-memory crash-simulating
// filesystem (internal/vfs): "crash" clones the FS and discards every
// byte that was not fsynced, exactly what the machine losing power does
// to a real disk.

const testStateDir = "/state"

func durableConfig(fsys vfs.FS) Config {
	return Config{
		Workers:  2,
		StateDir: testStateDir,
		StateFS:  fsys,
	}
}

func newDurableServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		ts.Close()
	})
	return srv, ts
}

// submitAsync posts an async request and returns the job id.
func submitAsync(t *testing.T, base, path string, req any) string {
	t.Helper()
	resp, body := postJSON(t, base+path, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: status %d: %s", resp.StatusCode, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	return jr.ID
}

// awaitJob polls the job store directly until the job is terminal.
func awaitJob(t *testing.T, srv *Server, id string, timeout time.Duration) (JobState, []byte, string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		sj, ok := srv.store.get(id)
		if !ok {
			t.Fatalf("job %s not in store", id)
		}
		state, body, errs, _ := sj.snapshot()
		if state == JobDone || state == JobFailed {
			return state, body, errs
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, state)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// relationsOf extracts the proven-pairs map from a matrix result body.
func relationsOf(t *testing.T, body []byte) map[string][][2]int {
	t.Helper()
	var m MatrixResult
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("bad matrix body %s: %v", body, err)
	}
	if !m.Complete {
		t.Fatalf("matrix result incomplete (cause %q)", m.Cause)
	}
	return m.Relations
}

func sameRelations(a, b map[string][][2]int) bool {
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	return bytes.Equal(aj, bj)
}

// crashImage snapshots the durable state of fs as a power-loss survivor
// would see it, without disturbing the (possibly still running) server.
func crashImage(fs *vfs.MemFS) *vfs.MemFS {
	img := fs.Clone()
	img.Crash()
	return img
}

// forceStop shuts a server down with an already-expired context: every
// in-flight job is canceled at its next poll, mimicking a kill.
func forceStop(srv *Server) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = srv.Shutdown(ctx)
}

// TestDurableRestartServesPersistedResults is the tentpole happy path: an
// async job's result and the result cache survive a graceful restart
// byte-for-byte, under the original job id.
func TestDurableRestartServesPersistedResults(t *testing.T) {
	fs := vfs.NewMemFS()
	srv, ts := newDurableServer(t, durableConfig(fs))
	req := map[string]any{"program": figure1Program(t), "all": true, "async": true}
	id := submitAsync(t, ts.URL, "/v1/analyze", req)
	state, body, errs := awaitJob(t, srv, id, 30*time.Second)
	if state != JobDone {
		t.Fatalf("job %s: %s (%s)", id, state, errs)
	}
	// Seed the cache durably with a synchronous matrix request too.
	if resp, b := postJSON(t, ts.URL+"/v1/analyze", map[string]any{"program": figure1Program(t), "all": true}); resp.StatusCode != http.StatusOK {
		t.Fatalf("sync analyze: %d %s", resp.StatusCode, b)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ts.Close()

	srv2, ts2 := newDurableServer(t, durableConfig(fs))
	var jr JobResponse
	if resp := getJSON(t, ts2.URL+"/v1/jobs/"+id, &jr); resp.StatusCode != http.StatusOK {
		t.Fatalf("job lookup after restart: %d", resp.StatusCode)
	}
	if jr.Status != JobDone {
		t.Fatalf("restarted job %s: %s (%s)", id, jr.Status, jr.Error)
	}
	if !bytes.Equal(jr.Result, body) {
		t.Errorf("persisted result differs from original:\n  was  %s\n  now  %s", body, jr.Result)
	}
	// The rehydrated cache must serve the sync result without re-running.
	resp, b := postJSON(t, ts2.URL+"/v1/analyze", map[string]any{"program": figure1Program(t), "all": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart analyze: %d %s", resp.StatusCode, b)
	}
	if env := decodeEnvelope(t, b); !env.Cached {
		t.Error("post-restart matrix request missed the rehydrated cache")
	}
	if v := srv2.Metrics().Counter(MetricStoreRehydrated).Value(); v == 0 {
		t.Error("store_rehydrated = 0 after restart with persisted cache entries")
	}
	if v := srv2.Metrics().Counter(MetricJournalReplayRecords).Value(); v == 0 {
		t.Error("journal_replay_records = 0 after replaying a non-empty journal")
	}
}

// TestCrashMidJobRecoversAndCompletes kills the filesystem while a heavy
// async job is mid-search; the reboot must re-run the accepted job to a
// terminal state with the same verdicts a clean run produces.
func TestCrashMidJobRecoversAndCompletes(t *testing.T) {
	slow, err := gen.Barrier(6)
	if err != nil {
		t.Fatal(err)
	}
	// Reference verdicts from a clean, non-durable run.
	_, ref := newTestServer(t, Config{Workers: 2})
	resp, refBody := postJSON(t, ref.URL+"/v1/analyze", map[string]any{"execution": executionJSON(t, slow), "all": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference run: %d %s", resp.StatusCode, refBody)
	}
	refRel := relationsOf(t, decodeEnvelope(t, refBody).Result)

	fs := vfs.NewMemFS()
	cfg := durableConfig(fs)
	cfg.Workers = 1
	srv, ts := newDurableServer(t, cfg)
	id := submitAsync(t, ts.URL, "/v1/analyze", map[string]any{"execution": executionJSON(t, slow), "all": true, "async": true})

	// Wait until the job is journaled as running, then pull the plug.
	deadline := time.Now().Add(10 * time.Second)
	for {
		sj, ok := srv.store.get(id)
		if !ok {
			t.Fatalf("job %s not in store", id)
		}
		if state, _, _, _ := sj.snapshot(); state == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(time.Millisecond)
	}
	img := crashImage(fs)
	forceStop(srv)
	ts.Close()

	cfg2 := durableConfig(img)
	srv2, _ := newDurableServer(t, cfg2)
	state, body, errs := awaitJob(t, srv2, id, 60*time.Second)
	if state != JobDone {
		t.Fatalf("recovered job %s: %s (%s)", id, state, errs)
	}
	if got := relationsOf(t, body); !sameRelations(got, refRel) {
		t.Errorf("recovered verdicts differ from the clean run")
	}
	if v := srv2.Metrics().Counter(MetricJobsRecovered).Value(); v != 1 {
		t.Errorf("jobs_recovered = %d, want 1", v)
	}
}

// journalFrameBoundaries parses a WAL segment image and returns every
// frame boundary offset (including the header boundary and EOF).
func journalFrameBoundaries(t *testing.T, seg []byte) []int64 {
	t.Helper()
	if len(seg) < 8 {
		t.Fatalf("segment too short: %d bytes", len(seg))
	}
	bounds := []int64{8}
	off := int64(8)
	for off < int64(len(seg)) {
		if off+8 > int64(len(seg)) {
			break
		}
		n := int64(binary.LittleEndian.Uint32(seg[off : off+4]))
		off += 8 + n
		if off > int64(len(seg)) {
			break
		}
		bounds = append(bounds, off)
	}
	return bounds
}

// TestCrashBoundarySweep is the acceptance sweep: a journal cut at EVERY
// record boundary (and mid-record) must boot, and every job whose
// "accepted" record survived the cut must reach a terminal state. It
// sweeps two journals of the same four jobs. In the first each job
// finishes before the next is submitted, so its records, and with them the
// cut@N byte offsets, come in one order on every run. In the second all
// four are accepted before any runs, so its cuts leave up to four jobs
// accepted but not done; the two workers interleave their records in
// varying order, so those subtests are named by boundary index.
func TestCrashBoundarySweep(t *testing.T) {
	img, ids := seedCrashJournal(t, figure1Program(t), false)
	sweepJournalCuts(t, img, ids, false)
	img, ids = seedCrashJournal(t, figure1Program(t), true)
	t.Run("queued", func(t *testing.T) { sweepJournalCuts(t, img, ids, true) })
}

// seedCrashJournal runs four async pair jobs on a fresh durable server and
// returns a crash image of its state with the jobs' ids. Distinct
// relations per job: identical requests would be served from the result
// cache instead of minting fresh journaled jobs. Unless queued, each job
// is awaited before the next is submitted (asyncOnDone journals "done"
// before the job reads as done). With queued, the workers are parked until
// all four are accepted.
func seedCrashJournal(t *testing.T, prog string, queued bool) (*vfs.MemFS, []string) {
	t.Helper()
	fs := vfs.NewMemFS()
	cfg := durableConfig(fs)
	srv, ts := newDurableServer(t, cfg)
	await := func(id string) {
		if state, _, errs := awaitJob(t, srv, id, 30*time.Second); state != JobDone {
			t.Fatalf("seed job %s: %s (%s)", id, state, errs)
		}
	}
	release := func() {}
	if queued {
		release = blockWorkers(t, srv, cfg.Workers, 0)
	}
	var ids []string
	for _, rel := range []string{"mhb", "chb", "mow", "cow"} {
		req := map[string]any{"program": prog, "rel": rel, "a": "lp", "b": "rp", "async": true}
		ids = append(ids, submitAsync(t, ts.URL, "/v1/analyze", req))
		if !queued {
			await(ids[len(ids)-1])
		}
	}
	release()
	for _, id := range ids {
		await(id)
	}
	img := crashImage(fs)
	forceStop(srv)
	ts.Close()
	return img, ids
}

// sweepJournalCuts boots a server from img with its live segment cut at
// every frame boundary and 3 bytes past it, to cover torn records as well
// as torn frame headers, and checks that every job whose accepted record
// survived the cut finishes. Subtests are named cut@<offset>, or
// b<index> and b<index>+3 when byIndex is set.
func sweepJournalCuts(t *testing.T, img *vfs.MemFS, ids []string, byIndex bool) {
	t.Helper()
	segPath := liveSegmentPath(t, img)
	seg, err := vfs.ReadFile(img, segPath)
	if err != nil {
		t.Fatalf("reading journal image: %v", err)
	}
	bounds := journalFrameBoundaries(t, seg)
	if len(bounds) < 8 {
		t.Fatalf("expected ≥8 frame boundaries (4 jobs × ≥2 records), got %d", len(bounds))
	}
	for i, bound := range bounds {
		for _, cut := range []int64{bound, bound + 3} {
			if cut > bound && cut >= int64(len(seg)) {
				continue
			}
			name := fmt.Sprintf("cut@%d", cut)
			if byIndex {
				name = fmt.Sprintf("b%02d", i)
				if cut > bound {
					name += "+3"
				}
			}
			t.Run(name, func(t *testing.T) {
				cutFS := img.Clone()
				f, err := cutFS.OpenFile(segPath, os.O_RDWR, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				if err := f.Truncate(cut); err != nil {
					t.Fatal(err)
				}
				f.Close()
				srv2, err := New(durableConfig(cutFS))
				if err != nil {
					t.Fatalf("boot after cut at %d: %v", cut, err)
				}
				defer forceStopGraceful(t, srv2)
				srv2.recoveryWG.Wait()
				for _, id := range ids {
					sj, ok := srv2.store.get(id)
					if !ok {
						continue // accepted record fell past the cut: never acknowledged... recoverable loss is only unacknowledged work
					}
					deadline := time.Now().Add(30 * time.Second)
					for {
						state, _, errs := func() (JobState, []byte, string) {
							s, b, e, _ := sj.snapshot()
							return s, b, e
						}()
						if state == JobDone {
							break
						}
						if state == JobFailed {
							t.Fatalf("job %s failed after cut at %d: %s", id, cut, errs)
						}
						if time.Now().After(deadline) {
							t.Fatalf("job %s stuck in %s after cut at %d", id, state, cut)
						}
						time.Sleep(2 * time.Millisecond)
					}
				}
			})
		}
	}
}

// liveSegmentPath finds the single live WAL segment in a state image.
func liveSegmentPath(t *testing.T, fsys vfs.FS) string {
	t.Helper()
	jdir := vfs.Join(testStateDir, "journal")
	entries, err := fsys.ReadDir(jdir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".wal") {
			segs = append(segs, vfs.Join(jdir, e.Name()))
		}
	}
	if len(segs) != 1 {
		t.Fatalf("expected exactly one live segment, got %v", segs)
	}
	return segs[0]
}

func forceStopGraceful(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
}

// TestRecoveryEmptyStateDir boots durability on a completely fresh
// filesystem: no journal, no blobs, no records — and still serves.
func TestRecoveryEmptyStateDir(t *testing.T) {
	fs := vfs.NewMemFS()
	srv, ts := newDurableServer(t, durableConfig(fs))
	if v := srv.Metrics().Counter(MetricJournalReplayRecords).Value(); v != 0 {
		t.Errorf("journal_replay_records = %d on empty state dir", v)
	}
	if v := srv.Metrics().Counter(MetricJobsRecovered).Value(); v != 0 {
		t.Errorf("jobs_recovered = %d on empty state dir", v)
	}
	id := submitAsync(t, ts.URL, "/v1/analyze", map[string]any{"program": figure1Program(t), "rel": "mhb", "a": "lp", "b": "rp", "async": true})
	if state, _, errs := awaitJob(t, srv, id, 30*time.Second); state != JobDone {
		t.Fatalf("job on fresh state dir: %s (%s)", state, errs)
	}
}

// TestRecoveryZeroLengthSegment: a crash can leave a created-but-unsynced
// segment as a zero-length file; boot must skip it, not choke on it.
func TestRecoveryZeroLengthSegment(t *testing.T) {
	fs := vfs.NewMemFS()
	jdir := vfs.Join(testStateDir, "journal")
	if err := fs.MkdirAll(jdir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, vfs.Join(jdir, "seg-00000000.wal"), nil); err != nil {
		t.Fatal(err)
	}
	srv, ts := newDurableServer(t, durableConfig(fs))
	if v := srv.Metrics().Counter(MetricJournalReplayRecords).Value(); v != 0 {
		t.Errorf("journal_replay_records = %d, want 0", v)
	}
	id := submitAsync(t, ts.URL, "/v1/analyze", map[string]any{"program": figure1Program(t), "rel": "mhb", "a": "lp", "b": "rp", "async": true})
	if state, _, errs := awaitJob(t, srv, id, 30*time.Second); state != JobDone {
		t.Fatalf("job after zero-length segment: %s (%s)", state, errs)
	}
}

// TestRecoveryDuplicateJobIDs: a crash between compaction's rewrite and
// its deletes can leave the same job's records in two segments. Replay
// must treat the duplicates as idempotent — one job, re-enqueued once.
func TestRecoveryDuplicateJobIDs(t *testing.T) {
	fs := vfs.NewMemFS()
	jdir := vfs.Join(testStateDir, "journal")
	jr, err := journal.Open(jdir, journal.Options{FS: fs, MaxSegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	// The request carries the removed "workers" knob, as journals written
	// before its removal may: replay decodes leniently, so it still
	// recovers (the HTTP handler's strict decoder would answer 400).
	req, _ := json.Marshal(map[string]any{"program": figure1Program(t), "rel": "mhb", "a": "lp", "b": "rp", "async": true, "workers": 4})
	acc, _ := json.Marshal(jobRecord{T: "accepted", ID: "j000007", Ep: "analyze", Req: req})
	run, _ := json.Marshal(jobRecord{T: "running", ID: "j000007"})
	// 64-byte segments force every append into its own segment, so the
	// duplicate accepted records land in different files.
	for _, rec := range [][]byte{acc, run, acc} {
		if err := jr.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	srv, _ := newDurableServer(t, durableConfig(fs))
	srv.recoveryWG.Wait()
	if v := srv.Metrics().Counter(MetricJournalReplayRecords).Value(); v != 3 {
		t.Errorf("journal_replay_records = %d, want 3", v)
	}
	state, _, errs := awaitJob(t, srv, "j000007", 30*time.Second)
	if state != JobDone {
		t.Fatalf("duplicated job: %s (%s)", state, errs)
	}
	if v := srv.Metrics().Counter(MetricJobsRecovered).Value(); v != 1 {
		t.Errorf("jobs_recovered = %d, want 1 (duplicates must collapse)", v)
	}
	// A fresh submission must mint an id past the recovered one.
	sj := srv.store.add()
	if sj.id <= "j000007" {
		t.Errorf("fresh id %s not past recovered j000007", sj.id)
	}
}

// TestDrainCheckpointsInflightJob: graceful shutdown checkpoints a
// running heavy job instead of discarding its work; the next boot resumes
// from the checkpoint and finishes with verdicts identical to a clean run.
func TestDrainCheckpointsInflightJob(t *testing.T) {
	slow, err := gen.Barrier(6)
	if err != nil {
		t.Fatal(err)
	}
	_, ref := newTestServer(t, Config{Workers: 2})
	resp, refBody := postJSON(t, ref.URL+"/v1/analyze", map[string]any{"execution": executionJSON(t, slow), "all": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference run: %d %s", resp.StatusCode, refBody)
	}
	refRel := relationsOf(t, decodeEnvelope(t, refBody).Result)

	fs := vfs.NewMemFS()
	cfg := durableConfig(fs)
	cfg.Workers = 1
	cfg.DrainCheckpoint = 30 * time.Millisecond
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	id := submitAsync(t, ts.URL, "/v1/analyze", map[string]any{"execution": executionJSON(t, slow), "all": true, "async": true})
	deadline := time.Now().Add(10 * time.Second)
	for {
		sj, _ := srv.store.get(id)
		if state, _, _, _ := sj.snapshot(); state == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.Close()
	ckpted := srv.Metrics().Counter(MetricJobsDrainCheckpointed).Value()
	if ckpted != 1 {
		// The job may legitimately have finished before the grace struck
		// on a fast machine; only proceed with the resume assertions when
		// the drain actually clipped it.
		t.Skipf("job finished before the drain checkpoint (jobs_drain_checkpointed = %d)", ckpted)
	}

	srv2, _ := newDurableServer(t, durableConfig(fs))
	state, body, errs := awaitJob(t, srv2, id, 60*time.Second)
	if state != JobDone {
		t.Fatalf("resumed job: %s (%s)", state, errs)
	}
	if got := relationsOf(t, body); !sameRelations(got, refRel) {
		t.Errorf("resumed verdicts differ from the clean run")
	}
	if v := srv2.Metrics().Counter(MetricJobsRecovered).Value(); v != 1 {
		t.Errorf("jobs_recovered = %d, want 1", v)
	}
	// The resumed run must have continued from the checkpoint, not
	// restarted: the journal carried a "checkpointed" record for it.
	if v := srv2.Metrics().Counter(MetricAnalyzeResumed).Value(); v != 1 {
		t.Errorf("analyze_resumed = %d, want 1 (resume from drain checkpoint)", v)
	}
}

// TestWedgedJournalRefusesAsync: once an append cannot be made durable,
// async admission answers 503 — the server never acknowledges work it
// cannot recover — while synchronous requests keep flowing.
func TestWedgedJournalRefusesAsync(t *testing.T) {
	fs := vfs.NewMemFS()
	srv, ts := newDurableServer(t, durableConfig(fs))
	_ = srv
	fs.SetFault(vfs.FaultPlan{FailSyncs: 1})
	req := map[string]any{"program": figure1Program(t), "rel": "mhb", "a": "lp", "b": "rp", "async": true}
	resp, body := postJSON(t, ts.URL+"/v1/analyze", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("async submit on failing disk: %d %s, want 503", resp.StatusCode, body)
	}
	// The journal is wedged now: later async submissions stay refused
	// even though the disk "recovered".
	resp, body = postJSON(t, ts.URL+"/v1/analyze", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("async submit after wedge: %d %s, want 503", resp.StatusCode, body)
	}
	// Synchronous requests never depended on the journal.
	sync := map[string]any{"program": figure1Program(t), "rel": "mhb", "a": "lp", "b": "rp"}
	if resp, body := postJSON(t, ts.URL+"/v1/analyze", sync); resp.StatusCode != http.StatusOK {
		t.Fatalf("sync request on wedged journal: %d %s, want 200", resp.StatusCode, body)
	}
}

// TestResumeRejectsOutOfRangeKey422: a well-formed checkpoint of burst.evo
// with one state key changed so that its first process sits past its last
// action decodes fine, but resuming it answers 422; so does one whose
// first canOrder row has a bit past the execution's events, which the
// result assembly would otherwise index past its rows with. The unchanged
// checkpoint still resumes.
func TestResumeRejectsOutOfRangeKey422(t *testing.T) {
	burst := readTestdataProgram(t, "burst.evo")
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/analyze", map[string]any{
		"program": burst, "all": true, "budget": 100, "tiers": -1,
	})
	var mr MatrixResult
	if err := json.Unmarshal(envelopeOf(t, resp, body).Result, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Complete || mr.Checkpoint == nil || mr.Checkpoint.States.Entries == 0 {
		t.Fatalf("budget-100 run should be partial with finished states (complete=%t)", mr.Complete)
	}
	if mr.Checkpoint.NumEvents%64 == 0 {
		t.Fatalf("burst.evo's %d events leave no fact bit past them", mr.Checkpoint.NumEvents)
	}
	good, err := mr.Checkpoint.EncodeString()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		mutate func(c *core.Checkpoint)
	}{
		{"out-of-range key", func(c *core.Checkpoint) { c.States.Keys[0] = ^uint64(0) }},
		{"fact bit past the events", func(c *core.Checkpoint) {
			c.CanOrder[(c.NumEvents+63)/64-1] |= 1 << uint(c.NumEvents%64)
		}},
	} {
		bad, err := core.DecodeCheckpointString(good)
		if err != nil {
			t.Fatal(err)
		}
		c.mutate(bad)
		enc, err := bad.EncodeString()
		if err != nil {
			t.Fatal(err)
		}
		req := map[string]any{"program": burst, "all": true, "resume": enc}
		if resp, body := postJSON(t, ts.URL+"/v1/analyze", req); resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d (%s), want 422", c.name, resp.StatusCode, body)
		}
	}
	req := map[string]any{"program": burst, "all": true, "resume": good}
	if resp, body := postJSON(t, ts.URL+"/v1/analyze", req); resp.StatusCode != http.StatusOK {
		t.Errorf("unchanged checkpoint: status %d (%s), want 200", resp.StatusCode, body)
	}
}

// TestResumeRejects422 is the hardened-checkpoint surface test: garbage,
// oversized, and legacy resume tokens come back as 422, never 500.
func TestResumeRejects422(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []string{
		"!!!not base64!!!",
		"aGVsbG8gd29ybGQ=", // valid base64, not a checkpoint
	}
	for _, resume := range cases {
		req := map[string]any{"program": figure1Program(t), "all": true, "resume": resume}
		resp, body := postJSON(t, ts.URL+"/v1/analyze", req)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("resume %q: status %d (%s), want 422", resume, resp.StatusCode, body)
		}
	}
}
