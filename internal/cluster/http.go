package cluster

import (
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/service"
)

// maxControlBytes bounds a request body; both are small JSON objects.
const maxControlBytes = 1 << 16

// RegisterHTTP mounts the cluster's HTTP endpoints on mux, instrumented
// into the coordinator's registry with the same per-route counters and
// histograms as the job and sweep APIs:
//
//	POST /v1/cluster/register    join the fleet -> worker_id, cadence, wire address
//	POST /v1/cluster/deregister  leave the fleet when no wire session can carry a Bye
//
// Units, heartbeats and completions travel over the streaming
// transport. Unknown workers get 404 and re-register; malformed bodies
// get 400.
func RegisterHTTP(mux *http.ServeMux, c *Coordinator) {
	h := &api{c: c}
	reg := c.Registry()
	mux.HandleFunc("POST /v1/cluster/register", service.Instrument(reg, "POST /v1/cluster/register", h.register))
	mux.HandleFunc("POST /v1/cluster/deregister", service.Instrument(reg, "POST /v1/cluster/deregister", h.deregister))
}

type api struct {
	c *Coordinator
}

// decode parses a JSON body with the repository's strict convention:
// unknown fields are a 400, not a silently dropped key.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxControlBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		service.WriteError(w, http.StatusBadRequest, "invalid request: "+err.Error())
		return false
	}
	return true
}

func (h *api) register(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decode(w, r, &req) {
		return
	}
	service.WriteJSON(w, http.StatusOK, h.c.Register(req))
}

func (h *api) deregister(w http.ResponseWriter, r *http.Request) {
	var req DeregisterRequest
	if !decode(w, r, &req) {
		return
	}
	if err := h.c.Deregister(req.WorkerID); errors.Is(err, ErrUnknownWorker) {
		service.WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	service.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
