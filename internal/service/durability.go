package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"eventorder/internal/journal"
	blobstore "eventorder/internal/store"
	"eventorder/internal/vfs"
)

// Durability layer. With Config.StateDir set, the server journals every
// async job's lifecycle to a write-ahead log and persists result bodies
// and drain checkpoints to a blob store, so a crash or restart loses no
// accepted work:
//
//	<state-dir>/journal/seg-*.wal   lifecycle records (CRC32C-framed WAL)
//	<state-dir>/blobs/*.blob        result bodies, checkpoints, cache entries
//
// Ordering invariants:
//
//   - the "accepted" record is durable BEFORE the job is submitted or the
//     202 is written — an acknowledged job is always recoverable;
//   - a blob is durable BEFORE the journal record that references it — a
//     crash between the two orphans a blob (harmless, garbage-collected
//     by job eviction) but never yields a dangling reference;
//   - a journal append failure wedges the journal, and the server then
//     refuses async submissions with 503 rather than acknowledge work it
//     cannot make durable (synchronous requests, which were never
//     durable, continue to be served).
//
// On startup the journal is replayed (torn tails truncated, corruption
// quarantined — see internal/journal), the job table is rebuilt with the
// original job ids, terminal jobs get their bodies back from the blob
// store, the result cache is rehydrated, the journal is compacted to the
// live record set, and every non-terminal job is re-enqueued — resuming
// from its latest persisted checkpoint when one exists.
//
// Only async jobs are durable: a synchronous request's result is owned by
// a connection that does not survive the crash either.

// jobRecord is one journal entry, JSON-encoded. T is the transition:
// "accepted" (carries the endpoint and request body), "running",
// "checkpointed" (carries the blob key of the latest checkpoint),
// "done" (carries the blob key of the result body, when persisting it
// succeeded), or "failed" (carries the error).
type jobRecord struct {
	T        string          `json:"t"`
	ID       string          `json:"id"`
	Ep       string          `json:"ep,omitempty"`
	Req      json.RawMessage `json:"req,omitempty"`
	Blob     string          `json:"blob,omitempty"`
	Complete bool            `json:"complete,omitempty"`
	Err      string          `json:"err,omitempty"`
}

// Blob key layout.
func jobResultKey(id string) string { return "job/" + id + "/result" }
func jobCkptKey(id string) string   { return "job/" + id + "/ckpt" }

const cacheKeyPrefix = "cache/"

// durable reports whether the durability layer is active.
func (s *Server) durable() bool { return s.jrnl != nil }

// noopTracer returns a tracer for work with no originating HTTP request
// (crash recovery); its spans go nowhere but keep the run path uniform.
func noopTracer() *tracer { return &tracer{id: "recovery"} }

// initDurability opens the journal and blob store under StateDir, replays
// the journal, rehydrates the job table and result cache, compacts, and
// starts the re-enqueue goroutine. Called from New; a nil error with
// StateDir unset means durability is off.
func (s *Server) initDurability() error {
	if s.cfg.StateDir == "" {
		return nil
	}
	fsys := s.cfg.StateFS
	if fsys == nil {
		fsys = vfs.OS{}
	}
	jdir := vfs.Join(s.cfg.StateDir, "journal")
	bdir := vfs.Join(s.cfg.StateDir, "blobs")

	rep, err := journal.Scan(fsys, jdir)
	if err != nil {
		return fmt.Errorf("service: journal replay: %w", err)
	}
	s.metrics.Counter(MetricJournalReplayRecords).Add(int64(len(rep.Records)))
	s.metrics.Counter(MetricJournalCorruptFrames).Add(int64(rep.CorruptFrames))
	if len(rep.Quarantined) > 0 {
		s.log.Warn("journal corruption: segments quarantined",
			"quarantined", strings.Join(rep.Quarantined, ","), "corruptFrames", rep.CorruptFrames)
	}

	blobs, err := blobstore.Open(fsys, bdir)
	if err != nil {
		return fmt.Errorf("service: blob store: %w", err)
	}
	s.blobs = blobs

	jr, err := journal.Open(jdir, journal.Options{FS: fsys, MaxSegmentBytes: s.cfg.JournalSegmentBytes})
	if err != nil {
		return fmt.Errorf("service: journal open: %w", err)
	}
	s.jrnl = jr

	// Rebuild the job table from the replayed records (later records for
	// an id override earlier ones — duplicate "accepted" records across
	// segments, as a crashed compaction can leave, are idempotent).
	type recovered struct {
		ep       string
		req      json.RawMessage
		state    JobState
		blob     string // result blob key for terminal jobs
		ckpt     string // checkpoint blob key for drain-checkpointed jobs
		complete bool
		errs     string
		order    int
	}
	table := map[string]*recovered{}
	var ids []string
	for i, raw := range rep.Records {
		var rec jobRecord
		if err := json.Unmarshal(raw, &rec); err != nil || rec.ID == "" {
			// An intact frame with an unreadable payload counts as
			// corruption for observability, but cannot stop recovery.
			s.metrics.Counter(MetricJournalCorruptFrames).Add(1)
			continue
		}
		rj, ok := table[rec.ID]
		if !ok {
			rj = &recovered{state: JobQueued, order: i}
			table[rec.ID] = rj
			ids = append(ids, rec.ID)
		}
		switch rec.T {
		case "accepted":
			rj.ep, rj.req = rec.Ep, rec.Req
		case "running":
			// Non-terminal; nothing to carry.
		case "checkpointed":
			rj.ckpt = rec.Blob
		case "done":
			rj.state, rj.blob, rj.complete = JobDone, rec.Blob, rec.Complete
		case "failed":
			rj.state, rj.errs = JobFailed, rec.Err
		}
	}

	// Job blobs are garbage-collected when the job table evicts an id —
	// including jobs evicted during the restore below, when the journaled
	// backlog outsizes MaxJobs.
	s.store.onEvict = func(id string) {
		_ = s.blobs.Delete(jobResultKey(id))
		_ = s.blobs.Delete(jobCkptKey(id))
	}

	// Rehydrate the job table (in journal order, so ids and eviction
	// order are stable) and collect the pending set.
	type pending struct {
		id   string
		ep   string
		req  json.RawMessage
		ckpt string
	}
	var torun []pending
	for _, id := range ids {
		rj := table[id]
		switch rj.state {
		case JobFailed:
			s.store.restore(id, JobFailed, nil, rj.errs)
		case JobDone:
			body, err := s.blobs.Get(rj.blob)
			if rj.blob == "" || err != nil {
				// The result body did not survive (crash between journal
				// record and blob, or blob corruption). Re-run if we still
				// have the request; otherwise the job fails visibly rather
				// than serving nothing.
				if len(rj.req) > 0 {
					s.store.restore(id, JobQueued, nil, "")
					torun = append(torun, pending{id: id, ep: rj.ep, req: rj.req, ckpt: rj.ckpt})
				} else {
					s.store.restore(id, JobFailed, nil, "service: persisted result lost")
				}
				continue
			}
			s.store.restore(id, JobDone, body, "")
		default: // accepted / running / checkpointed: re-enqueue
			if len(rj.req) == 0 {
				s.store.restore(id, JobFailed, nil, "service: journal lost the request body")
				continue
			}
			s.store.restore(id, JobQueued, nil, "")
			torun = append(torun, pending{id: id, ep: rj.ep, req: rj.req, ckpt: rj.ckpt})
		}
	}

	// Rehydrate the result cache from persisted cache blobs, newest-
	// agnostic (Range order is unspecified); entries past the byte budget
	// are dropped from disk too, so the store cannot grow unboundedly
	// across restarts.
	var cacheBytes int64
	if err := s.blobs.Range(func(key string, payload []byte) bool {
		if !strings.HasPrefix(key, cacheKeyPrefix) {
			return true
		}
		ckey := strings.TrimPrefix(key, cacheKeyPrefix)
		cost := entryCost(ckey, payload)
		if cacheBytes+cost > s.cfg.CacheBytes {
			_ = s.blobs.Delete(key)
			return true
		}
		cacheBytes += cost
		s.cache.put(ckey, payload)
		s.metrics.Counter(MetricStoreRehydrated).Add(1)
		return true
	}); err != nil {
		return fmt.Errorf("service: cache rehydration: %w", err)
	}

	// Compact the journal down to the live record set: one terminal
	// record per finished job, accepted(+checkpointed) per pending job.
	// Skipped when nothing was replayed — a fresh boot has nothing to
	// fold, and rewriting an empty segment every boot is pure churn.
	var live [][]byte
	appendRec := func(rec jobRecord) {
		if b, err := json.Marshal(rec); err == nil {
			live = append(live, b)
		}
	}
	for _, id := range ids {
		rj := table[id]
		if _, stillStored := s.store.get(id); !stillStored {
			continue // evicted during restore: drop its records too
		}
		switch rj.state {
		case JobFailed:
			appendRec(jobRecord{T: "accepted", ID: id, Ep: rj.ep, Req: rj.req})
			appendRec(jobRecord{T: "failed", ID: id, Err: rj.errs})
		case JobDone:
			appendRec(jobRecord{T: "accepted", ID: id, Ep: rj.ep, Req: rj.req})
			appendRec(jobRecord{T: "done", ID: id, Blob: rj.blob, Complete: rj.complete})
		default:
			appendRec(jobRecord{T: "accepted", ID: id, Ep: rj.ep, Req: rj.req})
			if rj.ckpt != "" {
				appendRec(jobRecord{T: "checkpointed", ID: id, Blob: rj.ckpt})
			}
		}
	}
	if len(rep.Records) > 0 {
		if err := s.jrnl.Compact(live); err != nil {
			return fmt.Errorf("service: journal compaction: %w", err)
		}
	}
	s.observeJournal()

	// Re-enqueue pending jobs in the background: the queue is bounded and
	// possibly smaller than the recovered backlog, so the goroutine
	// retries full-queue rejections instead of dropping work. It stops
	// only when the server drains.
	if len(torun) > 0 {
		s.log.Info("recovering jobs from journal", "pending", len(torun))
	}
	s.recoveryWG.Add(1)
	go func() {
		defer s.recoveryWG.Done()
		for _, p := range torun {
			if !s.requeueRecovered(p.id, p.ep, p.req, p.ckpt) {
				return // draining
			}
			s.metrics.Counter(MetricJobsRecovered).Add(1)
		}
	}()
	return nil
}

// requeueRecovered rebuilds one journaled job and submits it, retrying
// queue-full rejections. Returns false when the server is draining.
func (s *Server) requeueRecovered(id, ep string, reqJSON json.RawMessage, ckptBlob string) bool {
	sj, ok := s.store.get(id)
	if !ok {
		return true // evicted while waiting: superseded
	}
	fail := func(err error) {
		sj.set(JobFailed, nil, err.Error())
		s.journalRecord(jobRecord{T: "failed", ID: id, Err: err.Error()})
	}

	// A drain checkpoint supersedes whatever resume string the original
	// request carried: rewrite the request to continue from it.
	if ckptBlob != "" {
		if ck, err := s.blobs.Get(ckptBlob); err == nil && ep == "analyze" {
			var areq AnalyzeRequest
			if json.Unmarshal(reqJSON, &areq) == nil {
				areq.Resume = string(ck)
				if b, err := json.Marshal(&areq); err == nil {
					reqJSON = b
				}
			}
		}
		// A lost or corrupt checkpoint blob is not fatal: the job re-runs
		// from scratch, which recovery must tolerate anyway.
	}

	o, err := s.prepareEndpoint(ep, reqJSON, noopTracer())
	if err == nil {
		err = o.runAdmit()
	}
	if err != nil {
		fail(err)
		return true
	}
	j := s.buildAsyncJob(sj, o, s.timeout(o.timeoutMs))
	for {
		err := s.submit(j)
		switch {
		case err == nil:
			return true
		case errors.Is(err, errDraining):
			// Leave the job journaled as pending: the next boot retries.
			return false
		default: // queue full: the backlog outsizes the queue; wait
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// prepareEndpoint rebuilds a dispatchable job from a journaled endpoint
// name and request body — the same prepare path the HTTP handlers use.
func (s *Server) prepareEndpoint(ep string, reqJSON json.RawMessage, tr *tracer) (dispatchOpts, error) {
	switch ep {
	case "analyze":
		var req AnalyzeRequest
		if err := json.Unmarshal(reqJSON, &req); err != nil {
			return dispatchOpts{}, fmt.Errorf("service: journaled request: %w", err)
		}
		return s.prepareAnalyze(&req, tr)
	case "races":
		var req RacesRequest
		if err := json.Unmarshal(reqJSON, &req); err != nil {
			return dispatchOpts{}, fmt.Errorf("service: journaled request: %w", err)
		}
		return s.prepareRaces(&req, tr)
	case "witness":
		var req WitnessRequest
		if err := json.Unmarshal(reqJSON, &req); err != nil {
			return dispatchOpts{}, fmt.Errorf("service: journaled request: %w", err)
		}
		return s.prepareWitness(&req, tr)
	}
	return dispatchOpts{}, fmt.Errorf("service: journaled job has unknown endpoint %q", ep)
}

// journalRecord appends one lifecycle record. Errors wedge the journal
// permanently (see internal/journal); from then on async admission
// refuses work with 503. The error is also returned so accept-time
// callers can refuse the triggering request itself.
func (s *Server) journalRecord(rec jobRecord) error {
	if !s.durable() {
		return nil
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := s.jrnl.Append(b); err != nil {
		s.log.Error("journal append failed; async admission disabled", "err", err.Error())
		return err
	}
	s.metrics.Counter(MetricJournalRecords).Add(1)
	s.observeJournal()
	return nil
}

// observeJournal exports journal counters.
func (s *Server) observeJournal() {
	st := s.jrnl.Stats()
	s.metrics.Gauge(MetricJournalSegments).Set(int64(st.Segments))
}

// journalAccepted makes a fresh async job durable before it is
// acknowledged. A failure means the job MUST NOT be acknowledged.
func (s *Server) journalAccepted(id, ep string, reqJSON json.RawMessage) error {
	return s.journalRecord(jobRecord{T: "accepted", ID: id, Ep: ep, Req: reqJSON})
}

// asyncOnDone is the durable async job epilogue: log the job's trace,
// classify the outcome, persist what recovery will need, journal the
// transition, and update the polled job state. The job gets its own log
// line because its request's line may already be written: at the 202 for
// a queued job, never for a recovered one.
//
// Outcome classification:
//
//   - error → "failed" (terminal);
//   - complete result → "done" (terminal) with the body persisted;
//   - partial result clipped by server drain (cause "canceled" while the
//     server is draining) → "checkpointed" (NON-terminal): the checkpoint
//     is persisted and the next boot resumes the job from it — drain
//     throws away no work;
//   - partial result the client asked for (its own budget or deadline
//     struck) → "done" (terminal) with complete=false: the client got
//     exactly what it requested and holds the checkpoint to continue.
func (s *Server) asyncOnDone(sj *storedJob, key string, tr *tracer, out jobOutput, err error) {
	s.log.Info("job done", tr.logFields()...)
	if err != nil {
		sj.set(JobFailed, nil, err.Error())
		s.journalRecord(jobRecord{T: "failed", ID: sj.id, Err: err.Error()})
		return
	}
	s.cacheStore(key, out)
	drained := s.durable() && !out.complete && out.checkpoint != "" &&
		out.cause == "canceled" && s.draining.Load()
	if drained {
		ck := jobCkptKey(sj.id)
		if perr := s.blobs.Put(ck, []byte(out.checkpoint)); perr != nil {
			ck = "" // blob lost: the job re-runs from scratch next boot
		}
		s.journalRecord(jobRecord{T: "checkpointed", ID: sj.id, Blob: ck})
		s.metrics.Counter(MetricJobsDrainCheckpointed).Add(1)
		// The in-memory view still serves the partial to any last-second
		// poller; the journal (non-terminal) is what the next boot obeys.
		sj.set(JobDone, out.body, "")
		sj.setProgress(out.progress)
		return
	}
	if s.durable() {
		blob := jobResultKey(sj.id)
		if perr := s.blobs.Put(blob, out.body); perr != nil {
			blob = "" // recovery re-runs instead of serving the body
		}
		s.journalRecord(jobRecord{T: "done", ID: sj.id, Blob: blob, Complete: out.complete})
	}
	sj.set(JobDone, out.body, "")
	sj.setProgress(out.progress)
}

// buildAsyncJob binds a stored job to its prepared work: the runJob
// lifecycle updates the polled state and, when durable, the journal.
// Shared by the HTTP async path (which passes the shed-clamped deadline)
// and crash recovery.
func (s *Server) buildAsyncJob(sj *storedJob, o dispatchOpts, timeout time.Duration) *job {
	ctx, cancel := context.WithTimeout(s.baseCtx, timeout)
	if o.anytime {
		// Drain checkpointing: when Shutdown's checkpoint grace expires,
		// in-flight anytime jobs are canceled so they surface resumable
		// partials instead of holding the drain open.
		stop := context.AfterFunc(s.drainCtx, cancel)
		inner := cancel
		cancel = func() { stop(); inner() }
	}
	run := o.run
	return &job{
		ctx:    ctx,
		cancel: cancel,
		run: func(ctx context.Context) (jobOutput, error) {
			sj.set(JobRunning, nil, "")
			s.journalRecord(jobRecord{T: "running", ID: sj.id})
			return run(ctx)
		},
		anytime: o.anytime,
		lane:    o.lane,
		tracer:  o.tracer,
		onDone: func(out jobOutput, err error) {
			s.asyncOnDone(sj, o.key, o.tracer, out, err)
		},
		done: make(chan struct{}),
	}
}

// cacheStore caches a complete result body and, when durable, persists
// it so the cache survives restarts.
func (s *Server) cacheStore(key string, out jobOutput) {
	if key == "" || !out.cacheable {
		return
	}
	s.cache.put(key, out.body)
	if s.durable() {
		_ = s.blobs.Put(cacheKeyPrefix+key, out.body)
	}
}

// finishDurability is the drain epilogue: wait out the recovery
// goroutine (it exits promptly once submissions return errDraining) and
// close the journal so its tail is durable.
func (s *Server) finishDurability() {
	s.recoveryWG.Wait()
	if s.durable() {
		s.closeJournalOnce.Do(func() {
			if err := s.jrnl.Close(); err != nil && !errors.Is(err, journal.ErrWedged) {
				s.log.Error("journal close", "err", err.Error())
			}
		})
	}
}
