package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Scheduler admission errors. The HTTP layer maps errQueueFull to 429 with
// a Retry-After hint and errDraining to 503.
var (
	errQueueFull = errors.New("job queue is full")
	errDraining  = errors.New("server is draining")
)

// job is one queued unit of work: the compiled cells of one request — a
// /v1/jobs submission is a one-cell batch — plus the stream the worker
// answers on. The worker sends each finished cell on lines, buffered to
// len(cells) so a slow reader never blocks it, and finish closes lines; the
// handler reads the fields below once lines is closed.
type job struct {
	cells  []*compiledJob
	ctx    context.Context
	cancel context.CancelFunc // releases ctx's deadline; called by finish
	enq    time.Time
	lines  chan BatchCell

	// cutByCause reports a walk cut short by the context's cause (the batch
	// summary's form) rather than by the cut cell's own trap (/v1/jobs').
	cutByCause bool

	prov    cacheProv // which cache tier served the class stream
	err     error
	queueUS int64 // admission → worker pickup
	runUS   int64 // worker pickup → completion
}

// finish completes the job exactly once, on every path — including the
// drain-remnant one, where no cell was ever run — by closing the cell
// stream the waiting handler ranges over.
func (j *job) finish(err error) {
	j.err = err
	j.cancel()
	close(j.lines)
}

// scheduler is the serving layer's bounded worker pool, the service-shaped
// sibling of the experiment harness scheduler: a fixed worker count bounds
// concurrent simulations, a bounded channel is the admission queue, and a
// draining flag turns SIGTERM into "in-flight jobs finish, queued and new
// jobs fail fast with 503".
type scheduler struct {
	queue chan *job
	wg    sync.WaitGroup

	mu       sync.RWMutex // guards draining and, with it, close(queue)
	draining bool

	depth   atomic.Int64 // queued, not yet picked up
	running atomic.Int64 // being simulated right now
}

// newScheduler starts workers goroutines servicing a queueDepth-slot queue.
// run executes one job and must finish it.
func newScheduler(workers, queueDepth int, run func(*job)) *scheduler {
	s := &scheduler{queue: make(chan *job, queueDepth)}
	s.wg.Add(workers)
	for range workers {
		go func() {
			defer s.wg.Done()
			for j := range s.queue {
				s.depth.Add(-1)
				if s.isDraining() {
					// Drained queue remnant: clean 503, no simulation.
					j.finish(errDraining)
					continue
				}
				s.running.Add(1)
				run(j)
				s.running.Add(-1)
			}
		}()
	}
	return s
}

// submit enqueues j without blocking: a full queue is backpressure (429),
// not a wait. Holding the read lock across the send excludes drain's
// close(queue).
func (s *scheduler) submit(j *job) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.draining {
		return errDraining
	}
	select {
	case s.queue <- j:
		s.depth.Add(1)
		return nil
	default:
		return errQueueFull
	}
}

func (s *scheduler) isDraining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining
}

// drain stops admission, fails every queued job with 503, lets in-flight
// jobs finish, and returns when the workers have exited. Safe to call more
// than once.
func (s *scheduler) drain() {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	if !already {
		close(s.queue)
	}
	s.mu.Unlock()
	s.wg.Wait()
}
