package serve

import "repro"

// This file defines the JSON wire types of the service. They are exported
// so the loadtest client (cmd/reprod/loadtest) and tests speak the same
// schema as the handlers; the module keeps them internal to the repository.

// SolveRequest is the body of POST /solve: run one schedule of a Table 1
// row's protocol. N is implied by len(Inputs); Seed defaults to 1,
// MaxSteps, BufferCap, and Values to the package defaults.
type SolveRequest struct {
	Row       string `json:"row"`
	Inputs    []int  `json:"inputs"`
	Seed      int64  `json:"seed,omitempty"`
	MaxSteps  int64  `json:"max_steps,omitempty"`
	BufferCap int    `json:"buffer_cap,omitempty"`
	Values    int    `json:"values,omitempty"`
}

// SolveResponse reports one run's outcome.
type SolveResponse struct {
	Value     int   `json:"value"`
	Footprint int   `json:"footprint"`
	Steps     int64 `json:"steps"`
	MaxBits   int   `json:"max_bits"`
}

// BatchRequest is the body of POST /solve/batch: a sweep of runs over one
// compiled handle, streamed back as newline-delimited JSON (one BatchResult
// per line, in spec order) so arbitrarily long sweeps need constant server
// memory and a disconnecting client stops the sweep.
type BatchRequest struct {
	Row       string     `json:"row"`
	BufferCap int        `json:"buffer_cap,omitempty"`
	Values    int        `json:"values,omitempty"`
	MaxSteps  int64      `json:"max_steps,omitempty"`
	Runs      []BatchRun `json:"runs"`
}

// BatchRun is one entry of a batch sweep.
type BatchRun struct {
	Inputs   []int `json:"inputs"`
	Seed     int64 `json:"seed"`
	MaxSteps int64 `json:"max_steps,omitempty"`
}

// BatchResult is one streamed line of a batch response. Exactly one of
// Outcome and Error is set.
type BatchResult struct {
	Index   int            `json:"index"`
	Seed    int64          `json:"seed"`
	Outcome *SolveResponse `json:"outcome,omitempty"`
	Error   string         `json:"error,omitempty"`
}

// VerifyRequest is the body of POST /verify: an exhaustive safety
// exploration, executed asynchronously through the job queue. Table takes
// the TableMode flag spellings ("exact", "compact", "compact128",
// "bitstate"). Workers is how many goroutines the exploration walk spreads
// across (0 or absent: one, the calling goroutine). It changes wall-clock
// time only: every report field but Mem is the same at every worker count,
// which is why the result cache does not key on it.
type VerifyRequest struct {
	Row        string `json:"row"`
	Inputs     []int  `json:"inputs"`
	MaxDepth   int    `json:"max_depth"`
	BufferCap  int    `json:"buffer_cap,omitempty"`
	Values     int    `json:"values,omitempty"`
	MaxRuns    int64  `json:"max_runs,omitempty"`
	SoloBudget int64  `json:"solo_budget,omitempty"`
	Symmetry   bool   `json:"symmetry,omitempty"`
	Table      string `json:"table,omitempty"`
	TableBytes int64  `json:"table_bytes,omitempty"`
	Workers    int    `json:"workers,omitempty"`
}

// VerifyResponse answers POST /verify. A result-cache hit returns the
// report inline with State "done" and Cached true; otherwise the job is
// queued and the client polls StatusURL.
type VerifyResponse struct {
	ID        string              `json:"id,omitempty"`
	State     string              `json:"state"`
	Cached    bool                `json:"cached,omitempty"`
	Report    *repro.VerifyReport `json:"report,omitempty"`
	StatusURL string              `json:"status_url,omitempty"`
}

// JobStatus answers GET /jobs/{id} and DELETE /jobs/{id}. StatesVisited is
// the running exploration's liveness signal: the explorer's latest progress
// count, updated every few thousand expanded configurations, so a client
// polling a long verify can tell a deep exploration from a hung one. It
// lags the final Report.States by up to one progress stride.
type JobStatus struct {
	ID            string              `json:"id"`
	State         string              `json:"state"`
	Report        *repro.VerifyReport `json:"report,omitempty"`
	Error         string              `json:"error,omitempty"`
	CacheKey      string              `json:"cache_key"`
	StatesVisited int64               `json:"states_visited,omitempty"`
	CreatedAt     string              `json:"created_at"`
	StartedAt     string              `json:"started_at,omitempty"`
	FinishedAt    string              `json:"finished_at,omitempty"`
}

// StatusResponse answers GET /status.
type StatusResponse struct {
	UptimeSeconds      float64          `json:"uptime_seconds"`
	Goroutines         int              `json:"goroutines"`
	HandleCache        CacheStats       `json:"handle_cache"`
	ResultCache        ResultCacheStats `json:"result_cache"`
	QueueDepth         int              `json:"queue_depth"`
	QueueCapacity      int              `json:"queue_capacity"`
	JobsRunning        int              `json:"jobs_running"`
	JobsQueuedTotal    int64            `json:"jobs_queued_total"`
	JobsDoneTotal      int64            `json:"jobs_done_total"`
	JobsFailedTotal    int64            `json:"jobs_failed_total"`
	JobsCancelledTotal int64            `json:"jobs_cancelled_total"`
	Draining           bool             `json:"draining"`
}

// CacheStats reports one cache's counters.
type CacheStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
}

// ResultCacheStats extends CacheStats with the load-time corruption count
// and the number of superseded records dropped by the startup compaction.
type ResultCacheStats struct {
	CacheStats
	Corrupt   int64 `json:"corrupt"`
	Compacted int64 `json:"compacted"`
}

// ErrorResponse is the JSON error envelope of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}
