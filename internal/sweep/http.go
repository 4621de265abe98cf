package sweep

import (
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/service"
	"repro/internal/tenant"
)

// maxGridBytes bounds a sweep-submission body.
const maxGridBytes = 1 << 20

// Register mounts the sweep API on mux, instrumented into the
// manager's registry with the same per-route counters/histograms as
// the job API:
//
//	POST   /v1/sweeps               submit a grid (202; 400 invalid/over cap, 503 draining)
//	GET    /v1/sweeps/{id}          progress counts (executed/cached/failed/pending)
//	GET    /v1/sweeps/{id}/results  full results; ?format=csv for one line per trial
//	DELETE /v1/sweeps/{id}          stop submitting further cells
func Register(mux *http.ServeMux, m *Manager) {
	h := &api{m: m}
	reg := m.Registry()
	// The sweep routes sit behind the same front door as the job API:
	// service.WithTenant authenticates against the shared controller.
	sm := m.cfg.Service
	mux.HandleFunc("POST /v1/sweeps", service.Instrument(reg, "POST /v1/sweeps", service.WithTenant(sm, h.submit)))
	mux.HandleFunc("GET /v1/sweeps/{id}", service.Instrument(reg, "GET /v1/sweeps/{id}", service.WithTenant(sm, h.get)))
	mux.HandleFunc("GET /v1/sweeps/{id}/results", service.Instrument(reg, "GET /v1/sweeps/{id}/results", service.WithTenant(sm, h.results)))
	mux.HandleFunc("DELETE /v1/sweeps/{id}", service.Instrument(reg, "DELETE /v1/sweeps/{id}", service.WithTenant(sm, h.cancel)))
}

type api struct {
	m *Manager
}

func (h *api) submit(w http.ResponseWriter, r *http.Request, t *tenant.Tenant) {
	var grid Grid
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxGridBytes))
	// As with job specs: a typo'd field would silently sweep the wrong
	// grid, so unknown keys are a hard 400.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&grid); err != nil {
		service.WriteError(w, http.StatusBadRequest, "invalid sweep grid: "+err.Error())
		return
	}
	sw, err := h.m.SubmitAs(t, grid)
	var adm *tenant.AdmissionError
	switch {
	case err == nil:
		service.WriteJSON(w, http.StatusAccepted, map[string]any{
			"id":     sw.ID(),
			"status": sw.Status(),
			"cells":  len(sw.cells),
		})
	case errors.As(err, &adm):
		w.Header().Set("Retry-After", adm.RetryAfterHeader())
		service.WriteError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrDraining):
		service.WriteError(w, http.StatusServiceUnavailable, err.Error())
	default:
		service.WriteError(w, http.StatusBadRequest, err.Error())
	}
}

// lookup resolves the path's sweep and enforces read authorization:
// sweep IDs are sequential, so a sweep the tenant may not see reads as
// absent (404) rather than confirming it exists. Readable are the
// tenant's own sweeps, sweeps it attached to by resubmitting the
// identical grid, and — for admin tenants — everyone's.
func (h *api) lookup(r *http.Request, t *tenant.Tenant) (*Sweep, bool) {
	sw, ok := h.m.Get(r.PathValue("id"))
	if !ok || !(t.Admin() || sw.Accessible(t.ID())) {
		return nil, false
	}
	return sw, true
}

func (h *api) get(w http.ResponseWriter, r *http.Request, t *tenant.Tenant) {
	sw, ok := h.lookup(r, t)
	if !ok {
		service.WriteError(w, http.StatusNotFound, ErrNotFound.Error())
		return
	}
	service.WriteJSON(w, http.StatusOK, sw.View(false))
}

func (h *api) results(w http.ResponseWriter, r *http.Request, t *tenant.Tenant) {
	sw, ok := h.lookup(r, t)
	if !ok {
		service.WriteError(w, http.StatusNotFound, ErrNotFound.Error())
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		service.WriteJSON(w, http.StatusOK, sw.View(true))
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		w.WriteHeader(http.StatusOK)
		_ = WriteCSV(w, sw.View(true).Results)
	default:
		service.WriteError(w, http.StatusBadRequest, "unknown format "+format+" (want json or csv)")
	}
}

// cancel is owner-or-admin only: an attached tenant may read the
// shared sweep but must not be able to kill the owner's run by having
// resubmitted the same grid.
func (h *api) cancel(w http.ResponseWriter, r *http.Request, t *tenant.Tenant) {
	if sw, ok := h.m.Get(r.PathValue("id")); !ok || !t.CanAccess(sw.Tenant()) {
		service.WriteError(w, http.StatusNotFound, ErrNotFound.Error())
		return
	}
	sw, err := h.m.Cancel(r.PathValue("id"))
	if err != nil {
		service.WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	service.WriteJSON(w, http.StatusOK, map[string]any{
		"id":     sw.ID(),
		"status": sw.Status(),
	})
}
