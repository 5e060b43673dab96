package dispatch

import (
	"net/http"

	"humancomp/internal/core"
	"humancomp/internal/queue"
	"humancomp/internal/task"
)

// The batched data plane: POST /v1/tasks:batch, /v1/leases:batch and
// /v1/leases:answers move N submits, leases or answers in one HTTP
// exchange. Each item carries its own status/error envelope, so one bad
// item never fails the batch — the response is always 200 with
// index-aligned per-item results. Underneath, core takes each lock
// once per batch and the WAL appends the whole batch with one write and
// one fsync, which is where the throughput multiple over the single-call
// path comes from.

// maxBatchItems bounds the items of one batch request; larger batches are
// rejected whole with 400 before touching the core.
const maxBatchItems = 256

// BatchSubmitRequest is the body of POST /v1/tasks:batch.
type BatchSubmitRequest struct {
	Tasks []SubmitRequest `json:"tasks"`
}

// BatchSubmitResult is one item's outcome: Status is the HTTP status the
// equivalent single call would have returned (201 plus ID on success).
type BatchSubmitResult struct {
	Status int     `json:"status"`
	ID     task.ID `json:"id,omitempty"`
	Error  string  `json:"error,omitempty"`
}

// BatchSubmitResponse is the body returned by POST /v1/tasks:batch,
// index-aligned with the request's tasks.
type BatchSubmitResponse struct {
	Results []BatchSubmitResult `json:"results"`
}

// BatchNextRequest is the body of POST /v1/leases:batch: lease up to Max
// tasks for one worker. Max is clamped to [1, maxBatchItems].
type BatchNextRequest struct {
	WorkerID string `json:"worker_id"`
	Max      int    `json:"max"`
}

// BatchNextResponse is the body returned by POST /v1/leases:batch. An
// empty Leases list means nothing was available (200, not 204 — the batch
// itself succeeded).
type BatchNextResponse struct {
	Leases []NextResponse `json:"leases"`
}

// BatchAnswerItem is one lease-plus-answer of POST /v1/leases:answers.
type BatchAnswerItem struct {
	Lease  queue.LeaseID `json:"lease"`
	Answer task.Answer   `json:"answer"`
}

// BatchAnswerRequest is the body of POST /v1/leases:answers.
type BatchAnswerRequest struct {
	Answers []BatchAnswerItem `json:"answers"`
}

// BatchItemStatus is one item's outcome where success carries no payload
// (the batched twin of the single call's 204). Answers to choice tasks
// under the online quality plane additionally report the task's posterior
// state after the vote was folded in, and whether this vote completed the
// task early on confidence.
type BatchItemStatus struct {
	Status     int       `json:"status"`
	Error      string    `json:"error,omitempty"`
	Confidence float64   `json:"confidence,omitempty"`
	Posterior  []float64 `json:"posterior,omitempty"`
	EarlyDone  bool      `json:"early_done,omitempty"`
}

// BatchAnswerResponse is the body returned by POST /v1/leases:answers,
// index-aligned with the request's answers.
type BatchAnswerResponse struct {
	Results []BatchItemStatus `json:"results"`
}

// checkBatchSize rejects empty and oversized batches whole.
func checkBatchSize(w http.ResponseWriter, r *http.Request, n int) bool {
	if n == 0 {
		badRequest(w, r, "dispatch: empty batch")
		return false
	}
	if n > maxBatchItems {
		badRequest(w, r, "dispatch: batch of %d items exceeds limit %d", n, maxBatchItems)
		return false
	}
	return true
}

// handleSubmitBatch serves POST /v1/tasks:batch. Items that fail request
// validation (unknown kind, gold without expected answer) are reported in
// their envelope without reaching the core; the remaining items go down as
// one core.SubmitBatch, which takes each lock and the WAL once.
func (s *Server) handleSubmitBatch(e *exchange, r *http.Request) {
	var req BatchSubmitRequest
	if !e.decode(r, &req, maxBatchBody) {
		return
	}
	if !checkBatchSize(e, r, len(req.Tasks)) {
		return
	}
	results := make([]BatchSubmitResult, len(req.Tasks))
	specs := make([]core.SubmitSpec, 0, len(req.Tasks))
	specIdx := make([]int, 0, len(req.Tasks))
	for i, item := range req.Tasks {
		kind, err := task.ParseKind(item.Kind)
		if err != nil {
			results[i] = BatchSubmitResult{Status: http.StatusBadRequest, Error: err.Error()}
			continue
		}
		sp := core.SubmitSpec{
			Kind: kind, Payload: item.Payload,
			Redundancy: item.Redundancy, Priority: item.Priority,
		}
		if item.Gold {
			if item.Expected == nil {
				results[i] = BatchSubmitResult{
					Status: http.StatusBadRequest,
					Error:  "dispatch: gold task requires expected answer",
				}
				continue
			}
			sp.Gold, sp.Expected = true, *item.Expected
		}
		specs = append(specs, sp)
		specIdx = append(specIdx, i)
	}
	for j, out := range s.sys.SubmitBatchCtx(r.Context(), specs) {
		i := specIdx[j]
		if out.Err != nil {
			results[i] = BatchSubmitResult{Status: statusOf(out.Err), Error: out.Err.Error()}
			continue
		}
		results[i] = BatchSubmitResult{Status: http.StatusCreated, ID: out.ID}
	}
	writeSubmitResults(e, results)
}

// handleNextBatch serves POST /v1/leases:batch: up to Max leases for one
// worker in one exchange.
func (s *Server) handleNextBatch(e *exchange, r *http.Request) {
	var req BatchNextRequest
	if !e.decode(r, &req, maxBatchBody) {
		return
	}
	if req.WorkerID == "" {
		badRequest(e, r, "dispatch: worker_id required")
		return
	}
	if req.Max < 1 {
		badRequest(e, r, "dispatch: max must be positive")
		return
	}
	max := req.Max
	if max > maxBatchItems {
		max = maxBatchItems
	}
	grants := s.sys.LeaseBatchCtx(r.Context(), req.WorkerID, max)
	out := BatchNextResponse{Leases: make([]NextResponse, len(grants))}
	for i, g := range grants {
		out.Leases[i] = NextResponse{Task: g.Task, Lease: g.Lease}
	}
	writeJSONSpanned(e, http.StatusOK, out)
}

// handleAnswerBatch serves POST /v1/leases:answers: each item's outcome
// mirrors what the equivalent POST /v1/leases/{id} would have returned
// (204 on success).
func (s *Server) handleAnswerBatch(e *exchange, r *http.Request) {
	var req BatchAnswerRequest
	if !e.decode(r, &req, maxBatchBody) {
		return
	}
	if !checkBatchSize(e, r, len(req.Answers)) {
		return
	}
	items := make([]queue.CompleteItem, len(req.Answers))
	for i, a := range req.Answers {
		items[i] = queue.CompleteItem{Lease: a.Lease, Answer: a.Answer}
	}
	results := make([]BatchItemStatus, len(items))
	for i, out := range s.sys.AnswerBatchDetailedCtx(r.Context(), items) {
		if out.Err != nil {
			results[i] = BatchItemStatus{Status: statusOf(out.Err), Error: out.Err.Error()}
			continue
		}
		results[i] = BatchItemStatus{
			Status:     http.StatusNoContent,
			Confidence: out.Confidence,
			Posterior:  out.Posterior,
			EarlyDone:  out.EarlyDone,
		}
	}
	writeJSONSpanned(e, http.StatusOK, BatchAnswerResponse{Results: results})
}
