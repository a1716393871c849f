package sim

import (
	"math"
	"time"

	"insure/internal/journal"
	"insure/internal/workload"
)

// BatchSink adapts a workload.BatchQueue with the paper's seismic arrival
// schedule: one survey dataset at each arrival time.
type BatchSink struct {
	Queue    *workload.BatchQueue
	Arrivals []time.Duration
	JobGB    float64

	next    int
	lastNow time.Duration

	// scheduled holds one-off future arrivals — migrated jobs in flight
	// from another site, due when their cross-site transfer completes.
	scheduled []scheduledJob
}

// scheduledJob is one in-flight migrated arrival.
type scheduledJob struct {
	at  time.Duration
	job *workload.Job
}

// NewSeismicSink builds the paper's seismic case study: 114 GB jobs
// arriving twice a day (§5).
func NewSeismicSink() *BatchSink {
	return &BatchSink{
		Queue:    workload.NewBatchQueue(workload.Seismic()),
		Arrivals: []time.Duration{7 * time.Hour, 13 * time.Hour},
		JobGB:    workload.SeismicJobGB,
	}
}

// Spec returns the workload model.
func (b *BatchSink) Spec() workload.Spec { return b.Queue.Spec }

// SetIDBase namespaces the queue's job IDs (see workload.BatchQueue) so
// they stay unique across a federated fleet.
func (b *BatchSink) SetIDBase(base uint64) { b.Queue.SetIDBase(base) }

// Tick injects due arrivals and feeds work to the queue.
func (b *BatchSink) Tick(now, dt time.Duration, workVMh float64, nVMs int) float64 {
	b.lastNow = now
	for b.next < len(b.Arrivals) && now >= b.Arrivals[b.next] {
		b.Queue.Add(b.Arrivals[b.next], b.JobGB)
		b.next++
	}
	for len(b.scheduled) > 0 && now >= b.scheduled[0].at {
		j := b.scheduled[0].job
		j.Arrived = now // latency at this site starts when the transfer lands
		b.Queue.Inject(j)
		b.scheduled = b.scheduled[1:]
	}
	return b.Queue.Tick(now, workVMh, nVMs)
}

// Schedule queues a one-off future arrival: a job migrating in from another
// site, landing once its transfer completes at time at. Insertion keeps the
// list sorted by due time (ties keep insertion order) so injection is
// deterministic.
func (b *BatchSink) Schedule(at time.Duration, job *workload.Job) {
	i := len(b.scheduled)
	for i > 0 && b.scheduled[i-1].at > at {
		i--
	}
	b.scheduled = append(b.scheduled, scheduledJob{})
	copy(b.scheduled[i+1:], b.scheduled[i:])
	b.scheduled[i] = scheduledJob{at: at, job: job}
}

// PendingGB is the queue's deferred backlog (in-flight scheduled arrivals
// are counted by the shipping side, not here).
func (b *BatchSink) PendingGB() float64 { return b.Queue.PendingGB() }

// TakeJobs removes and returns every queued job — the evacuation half of a
// migration; the jobs land elsewhere via Schedule.
func (b *BatchSink) TakeJobs() []*workload.Job { return b.Queue.TakePending() }

// InFlight reports jobs scheduled but not yet landed.
func (b *BatchSink) InFlight() int { return len(b.scheduled) }

// MigratedCompletedGB is the completed volume that arrived via migration.
func (b *BatchSink) MigratedCompletedGB() float64 { return b.Queue.MigratedCompletedGB() }

// Rollover rearms the sink for the next simulated day: the daily arrival
// schedule restarts, and any still-in-flight migrated job lands at the top
// of the new day (the backhaul keeps moving data overnight). Queue backlog
// and completion history carry over untouched.
func (b *BatchSink) Rollover() {
	b.next = 0
	b.lastNow = 0
	for i := range b.scheduled {
		b.scheduled[i].at = 0
	}
}

// batchSinkStateVersion versions the sink's serialized layout.
const batchSinkStateVersion = 1

// Walk is the sink's one persisted layout: the arrival cursor, the
// in-flight scheduled arrivals, and the whole queue. The fleet daemon's
// day-boundary snapshots carry it.
func (b *BatchSink) Walk(c journal.Codec) {
	c.Version(batchSinkStateVersion)
	journal.Int(c, &b.next)
	journal.I64(c, &b.lastNow)
	n := c.Len(len(b.scheduled), math.MaxInt, "sim: %d scheduled arrivals outside [0, %d]")
	if c.Decoding() {
		b.scheduled = b.scheduled[:0]
		for i := 0; i < n; i++ {
			b.scheduled = append(b.scheduled, scheduledJob{job: new(workload.Job)})
		}
	}
	for i := range b.scheduled {
		journal.I64(c, &b.scheduled[i].at)
		b.scheduled[i].job.Walk(c)
	}
	b.Queue.Walk(c)
}

// AppendState serializes the sink into e.
func (b *BatchSink) AppendState(e *journal.Encoder) { b.Walk(journal.Encoding(e)) }

// HasWork reports pending jobs.
func (b *BatchSink) HasWork(now time.Duration) bool { return b.Queue.HasWork() }

// ProcessedGB is cumulative output.
func (b *BatchSink) ProcessedGB() float64 { return b.Queue.ProcessedGB() }

// DelayMinutes is the mean completion latency in minutes, with unfinished
// jobs counted as still waiting — otherwise a manager that never finishes
// anything would report zero latency.
func (b *BatchSink) DelayMinutes() float64 {
	var total time.Duration
	n := 0
	for _, j := range b.Queue.Completed() {
		total += j.Done - j.Arrived
		n++
	}
	for _, j := range b.Queue.Pending() {
		total += b.lastNow - j.Arrived
		n++
	}
	if n == 0 {
		return 0
	}
	return (total / time.Duration(n)).Minutes()
}

// StreamSink adapts a workload.StreamQueue: cameras record during the
// recording window.
type StreamSink struct {
	Queue *workload.StreamQueue
	// RecordStart/RecordEnd bound camera activity.
	RecordStart, RecordEnd time.Duration
}

// NewVideoSink builds the paper's 24-camera surveillance case study.
func NewVideoSink() *StreamSink {
	return &StreamSink{
		Queue:       workload.NewStreamQueue(workload.Video()),
		RecordStart: 7 * time.Hour,
		RecordEnd:   20 * time.Hour,
	}
}

// Spec returns the workload model.
func (s *StreamSink) Spec() workload.Spec { return s.Queue.Spec }

// Tick gates arrivals on the recording window and feeds the queue.
func (s *StreamSink) Tick(now, dt time.Duration, workVMh float64, nVMs int) float64 {
	saved := s.Queue.ArrivalGBPerMin
	if now < s.RecordStart || now >= s.RecordEnd {
		s.Queue.ArrivalGBPerMin = 0
	}
	gb := s.Queue.Tick(dt, workVMh, nVMs)
	s.Queue.ArrivalGBPerMin = saved
	return gb
}

// HasWork reports backlog or active recording.
func (s *StreamSink) HasWork(now time.Duration) bool {
	return s.Queue.Backlog() > 0 || (now >= s.RecordStart && now < s.RecordEnd)
}

// ProcessedGB is cumulative output.
func (s *StreamSink) ProcessedGB() float64 { return s.Queue.ProcessedGB() }

// DelayMinutes is the time-averaged service delay.
func (s *StreamSink) DelayMinutes() float64 { return s.Queue.MeanDelayMinutes() }

// MicroSink adapts an endless micro-benchmark kernel.
type MicroSink struct {
	Source *workload.IterativeSource
}

// NewMicroSink wraps one kernel of the Figs 17–19 suite.
func NewMicroSink(spec workload.Spec) *MicroSink {
	return &MicroSink{Source: workload.NewIterativeSource(spec)}
}

// Spec returns the kernel model.
func (m *MicroSink) Spec() workload.Spec { return m.Source.Spec }

// Tick feeds work to the kernel.
func (m *MicroSink) Tick(now, dt time.Duration, workVMh float64, nVMs int) float64 {
	return m.Source.Tick(workVMh, nVMs)
}

// HasWork always holds: kernels run iteratively.
func (m *MicroSink) HasWork(time.Duration) bool { return true }

// ProcessedGB is cumulative output.
func (m *MicroSink) ProcessedGB() float64 { return m.Source.ProcessedGB() }

// DelayMinutes is zero: kernels have no deadline.
func (m *MicroSink) DelayMinutes() float64 { return 0 }
