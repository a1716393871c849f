package workload

import (
	"math"

	"insure/internal/journal"
)

// Batch-queue state serialization, used by the fleet daemon's day-boundary
// snapshots: a killed daemon restores every site's backlog, completion
// history, and job-ID cursor bit-exactly, which is what makes its resumed
// day byte-identical to the run that never died.

const batchQueueStateVersion = 1

// Walk is one job's persisted layout. The fleet layer also walks it for
// in-flight migrated jobs riding sink snapshots.
func (j *Job) Walk(c journal.Codec) {
	c.U64(&j.ID)
	journal.F64(c, &j.Size)
	journal.F64(c, &j.Remaining)
	journal.I64(c, &j.Arrived)
	journal.I64(c, &j.Done)
	c.Bool(&j.Migrated)
	journal.Int(c, &j.Origin)
}

// Walk is the queue's one persisted layout: the ID cursor, the processed
// total, and the pending and completed jobs.
func (q *BatchQueue) Walk(c journal.Codec) {
	c.Version(batchQueueStateVersion)
	c.U64(&q.idBase)
	c.U64(&q.idSeq)
	journal.F64(c, &q.processed)
	walkJobs(c, &q.pending)
	walkJobs(c, &q.completed)
}

// walkJobs walks a length-prefixed job list. Decoding builds fresh jobs:
// a decoded job must not alias one handed out before the restore.
func walkJobs(c journal.Codec, jobs *[]*Job) {
	n := c.Len(len(*jobs), math.MaxInt, "workload: %d jobs outside [0, %d]")
	if c.Decoding() {
		*jobs = (*jobs)[:0]
		for i := 0; i < n; i++ {
			*jobs = append(*jobs, new(Job))
		}
	}
	for _, j := range *jobs {
		j.Walk(c)
	}
}
