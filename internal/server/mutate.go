// The dataset mutation endpoint and the incremental result-cache
// migration it drives. POST /v1/datasets/{name}:mutate applies one atomic
// mutation batch (single JSON body or NDJSON stream, one mutation per
// line), advances the dataset generation, and then — instead of merely
// orphaning every cached result of the old generation — classifies each
// cached kSPR result against the batch (kspr.MutationImpact) and carries
// the provably unaffected ones to the new generation's cache keys.
package server

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"strings"

	kspr "repro"
	"repro/internal/obs"
)

// mutateOp is one wire-form mutation.
type mutateOp struct {
	// Op is insert, update, or delete.
	Op string `json:"op"`
	// ID is the stable option id (required for update/delete, forbidden
	// for insert — the store assigns insert ids).
	ID *int64 `json:"id,omitempty"`
	// Values is the attribute vector (insert/update).
	Values []float64 `json:"values,omitempty"`
	// Label optionally (re)labels the option (insert/update).
	Label string `json:"label,omitempty"`
}

// mutateBody is the JSON body of a mutation batch: an envelope with a
// mutations array, or one bare mutation object.
type mutateBody struct {
	Mutations []mutateOp `json:"mutations"`
	mutateOp
}

// mutateResponse acknowledges an applied batch.
type mutateResponse struct {
	Dataset    string `json:"dataset"`
	Generation uint64 `json:"generation"`
	// StoreGeneration is the generation WAL recovery restores; Durable
	// whether the dataset is WAL-backed at all.
	StoreGeneration uint64 `json:"store_generation"`
	Durable         bool   `json:"durable,omitempty"`
	Records         int    `json:"records"`
	Applied         int    `json:"applied"`
	// IDs holds the stable option id each mutation addressed, aligned with
	// the batch (freshly assigned for inserts).
	IDs []int64 `json:"ids"`
	// CacheMigrated / CacheDropped report the incremental cache pass:
	// cached results proven unaffected and carried over versus orphaned.
	CacheMigrated int `json:"cache_migrated"`
	CacheDropped  int `json:"cache_dropped"`
}

// toMutation validates and converts one wire mutation.
func (m mutateOp) toMutation(i int) (kspr.Mutation, error) {
	switch strings.ToLower(m.Op) {
	case "insert":
		if m.ID != nil {
			return kspr.Mutation{}, fmt.Errorf("mutation %d: insert must not set an id (the store assigns them)", i)
		}
		return kspr.Insert(m.Values...), nil
	case "update":
		if m.ID == nil {
			return kspr.Mutation{}, fmt.Errorf("mutation %d: update needs an id", i)
		}
		return kspr.Update(*m.ID, m.Values...), nil
	case "delete":
		if m.ID == nil {
			return kspr.Mutation{}, fmt.Errorf("mutation %d: delete needs an id", i)
		}
		if len(m.Values) > 0 {
			return kspr.Mutation{}, fmt.Errorf("mutation %d: delete must not carry values", i)
		}
		return kspr.Delete(*m.ID), nil
	default:
		return kspr.Mutation{}, fmt.Errorf("mutation %d: unknown op %q (want insert, update, delete)", i, m.Op)
	}
}

// decodeMutateRequest reads a mutation batch in any of the three wire
// forms: a JSON envelope with a mutations array, a single bare JSON
// mutation object, or (Content-Type application/x-ndjson) one mutation
// per line. The batch always applies atomically regardless of form.
func (s *Server) decodeMutateRequest(w http.ResponseWriter, r *http.Request) ([]mutateOp, bool) {
	var ops []mutateOp
	var err error
	if strings.Contains(r.Header.Get("Content-Type"), "ndjson") {
		err = eachLine(w, r, func(line []byte) error {
			var op mutateOp
			if err := decodeJSON(bytes.NewReader(line), &op); err != nil {
				return fmt.Errorf("invalid mutation line %d: %w", len(ops), err)
			}
			ops = append(ops, op)
			return nil
		})
	} else {
		var body mutateBody
		err = decodeJSON(http.MaxBytesReader(w, r.Body, maxBodyBytes), &body)
		op := body.mutateOp
		switch {
		case err == nil && len(body.Mutations) > 0 && op.Op == "" && op.ID == nil && op.Values == nil && op.Label == "":
			ops = body.Mutations
		case err == nil && body.Mutations == nil && op.Op != "":
			ops = []mutateOp{op}
		default:
			err = errors.New(`invalid mutation body: want {"mutations":[...]}, a single {"op":...}, or an ndjson stream`)
		}
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	return ops, true
}

// handleDatasetMutate serves POST /v1/datasets/{name}:mutate.
func (s *Server) handleDatasetMutate(w http.ResponseWriter, r *http.Request) {
	action := r.PathValue("action")
	name, ok := strings.CutSuffix(action, ":mutate")
	if !ok || name == "" {
		writeError(w, http.StatusNotFound, "unknown dataset action %q (want <name>:mutate)", action)
		return
	}
	if _, ok := s.snapshot(w, r, name); !ok {
		return
	}
	ops, ok := s.decodeMutateRequest(w, r)
	if !ok {
		return
	}
	if len(ops) == 0 {
		writeError(w, http.StatusBadRequest, "mutation batch is empty")
		return
	}
	muts := make([]kspr.Mutation, len(ops))
	labels := make(map[int]string)
	for i, op := range ops {
		m, err := op.toMutation(i)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		muts[i] = m
		if op.Label != "" {
			labels[i] = op.Label
		}
	}
	old, cur, res, err := s.registry.Mutate(name, muts, labels)
	if err != nil {
		// Not-found races (unloaded between the pre-check and Mutate) are
		// 404; storage-side failures (WAL append/fsync — not applied, safe
		// to retry) are 500; everything else is input validation.
		switch {
		case errors.Is(err, ErrDatasetNotFound):
			writeError(w, http.StatusNotFound, "%v", err)
		case errors.Is(err, kspr.ErrStoreIO):
			writeError(w, http.StatusInternalServerError, "%v", err)
		default:
			writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	reqInfoFrom(r.Context()).noteDataset(cur)
	s.journal.Append(obs.JournalEvent{
		Type:            obs.EventMutationBatch,
		Dataset:         cur.Name,
		Generation:      cur.Generation,
		StoreGeneration: cur.StoreGeneration,
		Detail:          map[string]any{"mutations": len(muts), "records": cur.DB.Len()},
	})
	migrated, dropped := s.migrateCache(old, cur, res.Deltas)
	s.journal.Append(obs.JournalEvent{
		Type:       obs.EventCacheMigration,
		Dataset:    cur.Name,
		Generation: cur.Generation,
		Detail:     map[string]any{"migrated": migrated, "dropped": dropped, "from_generation": old.Generation},
	})
	s.metrics.AddMutationBatch(len(muts), migrated, dropped)
	writeJSON(w, http.StatusOK, mutateResponse{
		Dataset:         cur.Name,
		Generation:      cur.Generation,
		StoreGeneration: cur.StoreGeneration,
		Durable:         cur.Durable,
		Records:         cur.DB.Len(),
		Applied:         len(muts),
		IDs:             res.IDs,
		CacheMigrated:   migrated,
		CacheDropped:    dropped,
	})
}

// migrateCache is the serving half of incremental kSPR maintenance: after
// a mutation batch moved the dataset from old to cur, every cached exact
// kSPR result of the old generation is classified against the batch's
// dominance facts, and the provably unaffected ones are re-inserted under
// the new generation's cache keys (with the focal's dense index remapped
// through its stable id). Affected or unmappable entries are dropped —
// i.e. simply left to age out under their old-generation keys, which no
// request will ever build again. Returns (migrated, dropped).
func (s *Server) migrateCache(old, cur *Snapshot, deltas []kspr.Delta) (int, int) {
	var hits []*entry[queryResponse]
	s.cache.EachPrefix(fmt.Sprintf("%s@%d|kspr|", old.Name, old.Generation), func(_ string, val any) {
		if e, ok := val.(*entry[queryResponse]); ok {
			hits = append(hits, e)
		}
	})
	if len(hits) == 0 {
		return 0, 0
	}
	mi := kspr.NewMutationImpact(old.DB, cur.DB, deltas)
	migrated, dropped := 0, 0
	for _, e := range hits {
		src := e.src.(*ksprSource)
		res, ok := src.raw.(*kspr.Result)
		if !ok {
			dropped++ // approximate results carry no exact region set
			continue
		}
		q := src.q
		if q.focalVector == nil {
			stable, ok := old.DB.StableID(q.focal)
			if !ok {
				dropped++
				continue
			}
			nd, ok := cur.DB.DenseIndex(stable)
			if !ok {
				dropped++ // the focal option was deleted
				continue
			}
			if !float64sEqual(old.DB.Record(q.focal), cur.DB.Record(nd)) {
				dropped++ // the focal option was repriced
				continue
			}
			q.focal = nd
		}
		if !mi.Unaffected(res.Focal, src.q.focal, q.focal, q.k, q.algo) {
			dropped++
			continue
		}
		resp := *e.resp
		resp.Generation, resp.Focal = cur.Generation, q.focal
		s.cache.Put(q.key(cur), &entry[queryResponse]{resp: &resp, stats: e.stats, src: &ksprSource{q: q, raw: res}})
		migrated++
	}
	return migrated, dropped
}

// float64sEqual compares two attribute vectors exactly.
func float64sEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
