package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"time"

	"relcomp"
)

// The dynamic-graph endpoints:
//
//	POST /v1/mutate      {"mutations":[{"op":"update|add|remove","from":0,"to":1,"p":0.5}]}
//	     commits the batch atomically and returns {"epoch":N,"applied":M}.
//	     Admission-controlled like query traffic: an overloaded engine
//	     sheds the batch with 429/503 + Retry-After rather than queueing
//	     unbounded mutation work.
//	GET  /v1/subscribe?s=0&t=5&k=1000[&estimator=MC&eps=0.01&deadline_ms=50&heartbeat_ms=15000]
//	     the query parameters of /v1/reliability, plus heartbeat_ms;
//	     a Server-Sent Events stream: one "estimate" event immediately,
//	     then one per committed batch that could change the answer.
//	     Heartbeat comments keep proxies from idling the stream out; a
//	     slow consumer loses oldest-first (the engine's drop-oldest
//	     coalescing), never stalls the server.
//
// When the server was started from -snapshot, committed batches are also
// appended to the snapshot's sidecar mutation log (<snapshot>.mutlog), and
// startup replays an existing sidecar to catch the engine up from the
// manifest epoch to the live epoch.

// defaultHeartbeat paces SSE keep-alive comments; tests shrink it via
// heartbeat_ms.
const defaultHeartbeat = 15 * time.Second

// mutationJSON is one wire mutation. P is a pointer so "p omitted" on an
// update/add is a client error, not a silent zero.
type mutationJSON struct {
	Op   string   `json:"op"`
	From int      `json:"from"`
	To   int      `json:"to"`
	P    *float64 `json:"p"`
}

type mutateRequest struct {
	Mutations []mutationJSON `json:"mutations"`
}

func (s *server) buildMutations(in []mutationJSON) ([]relcomp.Mutation, error) {
	g := s.engine.Graph()
	muts := make([]relcomp.Mutation, len(in))
	for i, m := range in {
		op, err := relcomp.ParseMutationOp(m.Op)
		if err != nil {
			return nil, fmt.Errorf("mutation %d: %v", i, err)
		}
		if err := checkNode(g, "from", m.From); err != nil {
			return nil, fmt.Errorf("mutation %d: %v", i, err)
		}
		if err := checkNode(g, "to", m.To); err != nil {
			return nil, fmt.Errorf("mutation %d: %v", i, err)
		}
		muts[i] = relcomp.Mutation{Op: op, From: relcomp.NodeID(m.From), To: relcomp.NodeID(m.To)}
		switch op {
		case relcomp.OpUpdateEdgeProb, relcomp.OpAddEdge:
			if m.P == nil {
				return nil, fmt.Errorf("mutation %d: %q requires \"p\"", i, m.Op)
			}
			muts[i].P = *m.P
		default:
			if m.P != nil {
				return nil, fmt.Errorf("mutation %d: \"remove\" takes no \"p\"", i)
			}
		}
	}
	return muts, nil
}

func (s *server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, apiError{Error: "POST required"})
		return
	}
	var req mutateRequest
	if err := decodeBody(w, r, maxBatchBytes, &req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				apiError{Error: fmt.Sprintf("mutation body exceeds %d bytes", maxBatchBytes)})
			return
		}
		badRequest(w, "invalid JSON body: %v", err)
		return
	}
	if len(req.Mutations) == 0 {
		badRequest(w, "empty mutation batch")
		return
	}
	if len(req.Mutations) > maxBatchQueries {
		badRequest(w, "batch of %d mutations exceeds limit %d", len(req.Mutations), maxBatchQueries)
		return
	}
	muts, err := s.buildMutations(req.Mutations)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}

	// One lock around commit + sidecar append keeps on-disk batches in
	// epoch order even when mutation requests race.
	s.mutMu.Lock()
	epoch, err := s.engine.Apply(r.Context(), muts)
	if err != nil {
		s.mutMu.Unlock()
		writeEngineError(w, err)
		return
	}
	var sideErr error
	if s.sidecar != nil {
		sideErr = relcomp.AppendMutationSidecar(s.sidecar, relcomp.MutationBatch{Epoch: epoch, Muts: muts})
		if sideErr == nil {
			sideErr = s.sidecar.Sync()
		}
	}
	s.mutMu.Unlock()
	if sideErr != nil {
		// The in-memory commit stands (subscribers were already notified);
		// what failed is durability. Surface it loudly — a restart from
		// the snapshot would lose this batch.
		log.Printf("relserver: ERROR: sidecar append for epoch %d failed: %v", epoch, sideErr)
		writeJSON(w, http.StatusInternalServerError, apiError{
			Error: fmt.Sprintf("batch committed at epoch %d but sidecar persistence failed: %v", epoch, sideErr)})
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"epoch":   epoch,
		"applied": len(muts),
	})
}

// handleSubscribe is the SSE continuous-query endpoint.
func (s *server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	vals := r.URL.Query()
	var q queryJSON
	err := queryParams(vals, relcomp.KindReliability, &q)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	req, err := s.buildRequest(q, nil, nil)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	ms := int(defaultHeartbeat / time.Millisecond)
	heartbeatMs := &ms
	if err := optionalParam(vals, "heartbeat_ms", strconv.Atoi, &heartbeatMs); err != nil || *heartbeatMs <= 0 {
		badRequest(w, "parameter \"heartbeat_ms\" must be a positive integer")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: "streaming unsupported by this connection"})
		return
	}

	sub, err := s.engine.Subscribe(r.Context(), req)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	defer sub.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // tell reverse proxies not to buffer
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	heartbeat := time.NewTicker(time.Duration(*heartbeatMs) * time.Millisecond)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case res, open := <-sub.C:
			if !open {
				return
			}
			payload, err := json.Marshal(toJSON(res))
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: estimate\ndata: %s\n\n", payload); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}
