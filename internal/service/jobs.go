package service

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Admission-control rejections. The two cases answer differently on the
// wire: a full queue is transient overload, so the client gets 429 with a
// Retry-After hint; a draining server will not come back for this
// connection, so the client gets 503 and should re-resolve.
var (
	// errQueueFull is returned by submit when the worker pool's queue is
	// at capacity; handlers map it to 429 + Retry-After.
	errQueueFull = errors.New("service: queue full, retry later")
	// errDraining is returned by submit when the server is shutting down;
	// handlers map it to 503.
	errDraining = errors.New("service: shutting down")
)

// jobOutput is what a job's run function produces: the response body,
// whether the result may enter the result cache (complete analyses only —
// a partial anytime result must never be served as if it were complete),
// and the anytime progress the jobs endpoint reports for async polls.
// The complete/checkpoint/cause triple is the durability layer's view of
// an anytime outcome: it decides whether a partial was clipped by server
// drain (journal "checkpointed", resume next boot) or requested by the
// client (terminal).
type jobOutput struct {
	body      []byte
	cacheable bool
	progress  *JobProgress
	// complete reports whether the analysis decided everything it was
	// asked (non-anytime runs always set it true on success).
	complete bool
	// checkpoint is the base64 resume token of a partial anytime result
	// ("" when complete or when the run kind has no checkpoints).
	checkpoint string
	// cause names why a partial stopped ("deadline", "budget",
	// "canceled"; "" when complete).
	cause string
}

// job is one unit of analysis work. The ctx carries the request deadline;
// runJob passes it into the core engine's context-aware search so an
// abandoned job stops burning CPU.
type job struct {
	ctx    context.Context
	cancel context.CancelFunc
	// run computes the result body. It executes on a worker goroutine,
	// or on the submitting one for a planner-decided job, with a private
	// core.Analyzer; it must honor ctx.
	run func(ctx context.Context) (jobOutput, error)
	// onDone, when non-nil, observes the outcome on the goroutine that ran
	// the job (used for caching and async bookkeeping) before done is
	// closed.
	onDone func(out jobOutput, err error)
	// anytime marks jobs whose run yields a partial result with value
	// under a dead context (matrix analyses). Such jobs execute even when
	// their deadline passed while queued — the run aborts at its first
	// cancellation poll and surfaces a resumable partial, where a
	// non-anytime job would just burn CPU toward an error nobody reads.
	anytime bool
	// lane is the admission-control routing decision: LaneFast runs the
	// job on the submitting goroutine, LaneHeavy queues it for the worker
	// pool. It also names the queue-wait histogram its wait lands in.
	lane string
	// submitted is when submit accepted the job; runJob derives the
	// queue-wait span from it.
	submitted time.Time
	// tracer, when non-nil, receives the job's queue wait and any phase
	// timings its run records.
	tracer *tracer

	done chan struct{}
	out  jobOutput
	err  error
}

// submit admits j without blocking. A fast-lane job (LaneFast: planner-
// decided, or a pair query on a certified execution) runs to completion
// on the calling goroutine: its work is polynomial, and the caller already
// planned it, or closed its constraint graph, there. Every other job goes to the worker
// pool's queue. submit fails with errQueueFull when that queue is at
// capacity and errDraining when the server no longer accepts work.
func (s *Server) submit(j *job) error {
	s.shutdownMu.Lock()
	if s.closed {
		s.shutdownMu.Unlock()
		s.metrics.Counter(MetricJobsRejected).Add(1)
		return errDraining
	}
	// Stamp before the send: the receiving worker reads submitted, and a
	// send can be received the instant it completes.
	j.submitted = time.Now()
	if j.lane == LaneFast {
		s.queueDepth.Add(1)
		// Registered under shutdownMu like a queued job, so Shutdown
		// waits for it as it waits for a running pool job.
		s.workerWG.Add(1)
		s.metrics.Counter(MetricJobsFastLane).Add(1)
		s.shutdownMu.Unlock()
		s.runJob(j)
		s.workerWG.Done()
		return nil
	}
	select {
	case s.jobs <- j:
		s.queueDepth.Add(1)
		s.shutdownMu.Unlock()
		return nil
	default:
		s.shutdownMu.Unlock()
		s.metrics.Counter(MetricJobsRejected).Add(1)
		s.metrics.Counter(MetricJobsThrottled).Add(1)
		return errQueueFull
	}
}

// worker drains the job queue until it is closed (graceful shutdown closes
// it after the last submit). Each job runs under its own context; a
// non-anytime job whose deadline already passed while queued is failed
// without running.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for j := range s.jobs {
		s.runJob(j)
	}
}

// queueWaitNames are the queue_wait_seconds_<lane> histogram names of the
// fast and the heavy lane, built once so that a job's observation
// concatenates no strings.
var queueWaitNames = [2]string{MetricQueueWait + "_" + LaneFast, MetricQueueWait + "_" + LaneHeavy}

func (s *Server) runJob(j *job) {
	defer s.queueDepth.Add(-1)
	defer j.cancel()
	wait := time.Since(j.submitted)
	name := queueWaitNames[1]
	if j.lane == LaneFast {
		name = queueWaitNames[0]
	}
	s.metrics.Histogram(name, queueWaitBounds).Observe(wait.Seconds())
	if j.tracer != nil {
		j.tracer.setQueueWait(wait)
	}
	if err := j.ctx.Err(); err != nil && !j.anytime {
		j.err = err
	} else {
		s.jobsRunning.Add(1)
		j.out, j.err = j.run(j.ctx)
		s.jobsRunning.Add(-1)
	}
	s.metrics.Counter(MetricJobsCompleted).Add(1)
	if j.err != nil && (errors.Is(j.err, context.DeadlineExceeded) || errors.Is(j.err, context.Canceled)) {
		s.metrics.Counter(MetricJobsDeadline).Add(1)
	}
	if j.err != nil && j.tracer != nil {
		j.tracer.setErr(j.err)
	}
	if j.onDone != nil {
		j.onDone(j.out, j.err)
	}
	close(j.done)
}

// Async job store -----------------------------------------------------------

// JobState names the lifecycle phase of an async job.
type JobState string

// Async job lifecycle states reported by GET /v1/jobs/{id}.
const (
	// JobQueued means the job is admitted but no worker has picked it up.
	JobQueued JobState = "queued"
	// JobRunning means a worker is computing the result.
	JobRunning JobState = "running"
	// JobDone means the result body is available.
	JobDone JobState = "done"
	// JobFailed means the computation ended with an error.
	JobFailed JobState = "failed"
)

// storedJob tracks one async submission for polling. For anytime matrix
// jobs the progress field survives alongside the result body: a partial
// result's body carries the checkpoint, so the poll response is enough to
// continue the analysis with a larger budget (POST /v1/analyze with
// resume set to the checkpoint).
type storedJob struct {
	mu       sync.Mutex
	id       string
	state    JobState
	body     []byte
	errs     string
	progress *JobProgress
}

func (sj *storedJob) set(state JobState, body []byte, errs string) {
	sj.mu.Lock()
	sj.state, sj.body, sj.errs = state, body, errs
	sj.mu.Unlock()
}

func (sj *storedJob) setProgress(p *JobProgress) {
	sj.mu.Lock()
	sj.progress = p
	sj.mu.Unlock()
}

func (sj *storedJob) snapshot() (JobState, []byte, string, *JobProgress) {
	sj.mu.Lock()
	defer sj.mu.Unlock()
	return sj.state, sj.body, sj.errs, sj.progress
}

// jobStore retains recent async jobs for polling, bounded by maxJobs
// (oldest evicted first — pollers of evicted ids get 404).
type jobStore struct {
	mu      sync.Mutex
	seq     int64
	maxJobs int
	order   *list.List // oldest at back
	byID    map[string]*list.Element
	// onEvict, when non-nil, observes each evicted job id outside the
	// store lock (the durability layer garbage-collects that job's blobs).
	onEvict func(id string)
}

func newJobStore(maxJobs int) *jobStore {
	return &jobStore{maxJobs: maxJobs, order: list.New(), byID: map[string]*list.Element{}}
}

// add registers a fresh queued job and returns it with a unique id.
func (st *jobStore) add() *storedJob {
	st.mu.Lock()
	st.seq++
	sj := &storedJob{id: fmt.Sprintf("j%06d", st.seq), state: JobQueued}
	st.byID[sj.id] = st.order.PushFront(sj)
	evicted := st.evictLocked()
	onEvict := st.onEvict
	st.mu.Unlock()
	notifyEvicted(onEvict, evicted)
	return sj
}

// restore re-registers a journaled job under its original id during crash
// recovery, bumping the id sequence past it so fresh submissions never
// collide with recovered ids. Insertion order is replay order, keeping
// eviction order stable across restarts.
func (st *jobStore) restore(id string, state JobState, body []byte, errs string) *storedJob {
	st.mu.Lock()
	var n int64
	if _, err := fmt.Sscanf(id, "j%06d", &n); err == nil && n > st.seq {
		st.seq = n
	}
	if el, ok := st.byID[id]; ok {
		// Duplicate id across journal segments: later records win.
		sj := el.Value.(*storedJob)
		sj.set(state, body, errs)
		st.mu.Unlock()
		return sj
	}
	sj := &storedJob{id: id, state: state, body: body, errs: errs}
	st.byID[id] = st.order.PushFront(sj)
	evicted := st.evictLocked()
	onEvict := st.onEvict
	st.mu.Unlock()
	notifyEvicted(onEvict, evicted)
	return sj
}

// evictLocked trims the store to maxJobs and returns the evicted ids.
func (st *jobStore) evictLocked() []string {
	var evicted []string
	for st.order.Len() > st.maxJobs {
		back := st.order.Back()
		st.order.Remove(back)
		id := back.Value.(*storedJob).id
		delete(st.byID, id)
		evicted = append(evicted, id)
	}
	return evicted
}

func notifyEvicted(onEvict func(id string), ids []string) {
	if onEvict == nil {
		return
	}
	for _, id := range ids {
		onEvict(id)
	}
}

// get looks up a job by id.
func (st *jobStore) get(id string) (*storedJob, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	el, ok := st.byID[id]
	if !ok {
		return nil, false
	}
	return el.Value.(*storedJob), true
}
