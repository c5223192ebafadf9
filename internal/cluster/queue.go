package cluster

// The submission workqueue decouples accepting a job from running it.
// Enqueue registers the job, marks it queued, and hands it to a bounded
// worker pool; callers that want the old synchronous behaviour Wait on
// the job afterwards. A full queue is an admission decision, not a
// blocking point: Enqueue fails fast with ErrQueueFull (the API maps it
// to 429 + Retry-After) and nothing is registered, so overload cannot
// grow the job table without bound.

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"cynthia/internal/model"
	"cynthia/internal/plan"
)

// Queue sizing defaults; override via Controller.QueueWorkers /
// Controller.QueueDepth before the first Enqueue.
const (
	DefaultQueueWorkers = 4
	DefaultQueueDepth   = 64
)

// ErrQueueFull is returned by Enqueue when the submission queue is at
// capacity; the caller should retry after a backoff.
var ErrQueueFull = errors.New("cluster: submission queue full")

// ErrQueueClosed is returned by Enqueue after DrainQueue began.
var ErrQueueClosed = errors.New("cluster: submission queue draining")

// ErrNotDurable is returned by Enqueue when the admission barrier could
// not make the job durable; nothing is registered and the caller may
// retry.
var ErrNotDurable = errors.New("cluster: job not durable")

// jobQueue is the bounded workqueue behind Enqueue. qmu guards startup,
// shutdown, and admission; it is never held while a job runs.
type jobQueue struct {
	qmu     sync.Mutex
	ch      chan *Job
	wg      sync.WaitGroup
	started bool
	closed  bool
}

// startQueueLocked spins up the worker pool on the first Enqueue or
// Requeue. It is idempotent; the caller holds qmu.
func (c *Controller) startQueueLocked() {
	q := &c.queue
	if q.started {
		return
	}
	workers := c.QueueWorkers
	if workers <= 0 {
		workers = DefaultQueueWorkers
	}
	depth := c.QueueDepth
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	q.ch = make(chan *Job, depth)
	for i := 0; i < workers; i++ {
		q.wg.Add(1)
		go func() {
			defer q.wg.Done()
			for job := range q.ch {
				_, _ = c.resumeOrRun(job) // outcome lands on the job record
			}
		}()
	}
	q.started = true
}

// Enqueue registers the submission and schedules it on the workqueue,
// returning as soon as the job is admitted (StatusQueued). Use Wait for
// the synchronous contract. A full queue rejects the submission with
// ErrQueueFull before anything is registered; a failed admission barrier
// unregisters the job and returns ErrNotDurable.
func (c *Controller) Enqueue(w *model.Workload, goal plan.Goal, traceID string) (*Job, error) {
	q := &c.queue
	q.qmu.Lock()
	defer q.qmu.Unlock()
	if q.closed {
		return nil, ErrQueueClosed
	}
	c.startQueueLocked()
	// qmu serializes all senders, so this capacity check cannot go stale
	// before the send below (receivers only free space).
	if len(q.ch) == cap(q.ch) {
		return nil, ErrQueueFull
	}
	job, err := c.newJob(w, goal, traceID)
	if err != nil {
		return nil, err
	}
	c.setStatus(job, StatusQueued)
	// Admission durability barrier: the accepted job must survive a crash
	// even before a worker picks it up — a restarted master re-enqueues
	// every StatusQueued job without a segment state.
	if c.Durability != nil {
		if err := c.Durability.Barrier(job.ID, PhaseAdmit); err != nil {
			if errors.Is(err, ErrMasterKilled) {
				return job, err // master killed at admission
			}
			c.mu.Lock()
			delete(c.jobs, job.ID)
			c.mu.Unlock()
			close(job.done)
			return nil, fmt.Errorf("%w: %w", ErrNotDurable, err)
		}
	}
	q.ch <- job
	return job, nil
}

// Requeue puts a restored non-terminal job back on the workqueue after a
// restart: a worker resumes it from its segment state if it has one and
// runs it from the start otherwise, so resumed jobs count against
// QueueWorkers and DrainQueue waits for them. Unlike Enqueue it registers
// nothing — the job already exists and was acknowledged before the crash
// — so a full queue is not an admission decision: Requeue waits for a
// worker to free a slot. A restart can restore more jobs than the queue
// holds.
func (c *Controller) Requeue(id string) error {
	q := &c.queue
	q.qmu.Lock()
	defer q.qmu.Unlock()
	if q.closed {
		return ErrQueueClosed
	}
	c.startQueueLocked()
	c.mu.Lock()
	job, ok := c.jobs[id]
	finished := ok && job.Status.Terminal()
	c.mu.Unlock()
	if !ok {
		return errors.New("cluster: no such job " + id)
	}
	if finished {
		return errors.New("cluster: job " + id + " already finished")
	}
	// The send may block with qmu held, so Enqueue and DrainQueue wait
	// behind it. It always completes: workers receive without qmu, and
	// the channel cannot close while qmu is held. Restart calls Requeue
	// before the API serves, so nothing is waiting in practice.
	q.ch <- job
	return nil
}

// DrainQueue stops admitting new submissions and waits for every queued
// and in-flight job to finish, or for ctx to expire. Safe to call
// multiple times and before the queue ever started.
func (c *Controller) DrainQueue(ctx context.Context) error {
	q := &c.queue
	q.qmu.Lock()
	if !q.closed {
		q.closed = true
		if q.started {
			close(q.ch)
		}
	}
	q.qmu.Unlock()
	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
