package campaign

import (
	"encoding/json"
	"strconv"
	"strings"
	"time"

	"secmgpu/internal/store"
)

// The coordinator's control journal makes campaigns — not just their
// results — durable. Every lifecycle transition appends one
// self-checksummed JSONL record to <store>/coordinator.jsonl (the
// store.Log machinery: fsynced appends, torn-tail tolerant replay). On
// startup the coordinator replays the journal: campaigns with a
// terminal record become queryable tombstones, campaigns without one
// were running when the process died and are re-submitted under their
// original IDs. Their cells rehydrate from the content-addressed store,
// so recovery converges to byte-identical tables with zero re-execution
// of persisted work.
//
// Record types:
//
//	submit     {id, key?, spec, created}  campaign accepted
//	cancel     {id, at}                   explicit cancellation requested
//	terminal   {id, state, error?, at}    campaign reached a final state
//	drain      {at}                       graceful shutdown completed
//
// A coordinator shutdown writes no terminal record for running
// campaigns: a shutdown is not an outcome, so replay re-submits them.
// Only an explicit Cancel (journaled immediately, in case the process
// dies before the campaign unwinds) and genuine done/failed completions
// are final. Replay skips record types it does not know, such as the
// worker "quarantine" records older coordinators wrote.
//
// A drain record as the journal's final entry marks a clean shutdown: a
// SIGTERM'd coordinator stopped granting leases, let in-flight leases
// finish or expire, and exited on purpose. The successor distinguishes
// drain from crash (Health.CleanShutdown) — the re-submission semantics
// are unchanged either way, the record is evidence, not behavior.
const (
	ctlSubmit   = "submit"
	ctlCancel   = "cancel"
	ctlTerminal = "terminal"
	ctlDrain    = "drain"
)

// ctlSubmitRec journals an accepted campaign with its assigned ID and,
// when the submitter supplied one, its idempotency key.
type ctlSubmitRec struct {
	ID      string    `json:"id"`
	Key     string    `json:"key,omitempty"`
	Spec    Spec      `json:"spec"`
	Created time.Time `json:"created"`
}

// ctlCancelRec journals a cancellation request.
type ctlCancelRec struct {
	ID string    `json:"id"`
	At time.Time `json:"at"`
}

// ctlTerminalRec journals a campaign reaching a final state.
type ctlTerminalRec struct {
	ID    string    `json:"id"`
	State State     `json:"state"`
	Error string    `json:"error,omitempty"`
	At    time.Time `json:"at"`
}

// ctlDrainRec journals a completed graceful drain: the final record of a
// cleanly shut-down coordinator.
type ctlDrainRec struct {
	At time.Time `json:"at"`
	// Campaigns counts campaigns still running at drain time (they
	// re-submit on the next boot; the drain only guarantees no lease was
	// abandoned mid-flight).
	Campaigns int `json:"campaigns,omitempty"`
}

// ctlCampaign is one campaign's journaled history after replay.
type ctlCampaign struct {
	submit   ctlSubmitRec
	canceled bool
	terminal *ctlTerminalRec
}

// ctlReplay is the reconstructed control-journal state.
type ctlReplay struct {
	// order lists campaign IDs in submit order.
	order []string
	// byID maps campaign ID to its journaled history.
	byID map[string]*ctlCampaign
	// corrupt counts skipped torn/bit-flipped records.
	corrupt int
	// lastType is the type of the final intact record — a drain there
	// means the previous process shut down cleanly.
	lastType string
}

// cleanShutdown reports whether the journal ends with a drain record,
// i.e. the previous coordinator exited through a graceful drain rather
// than a crash.
func (r *ctlReplay) cleanShutdown() bool { return r.lastType == ctlDrain }

// resubmit returns the campaigns that were running when the previous
// process died: submitted, never cancelled, no terminal record.
func (r *ctlReplay) resubmit() []ctlSubmitRec {
	var out []ctlSubmitRec
	for _, id := range r.order {
		c := r.byID[id]
		if c.terminal == nil && !c.canceled {
			out = append(out, c.submit)
		}
	}
	return out
}

// maxSeq recovers the highest ID sequence number so new submissions
// never collide with journaled ones.
func (r *ctlReplay) maxSeq() int {
	max := 0
	for _, id := range r.order {
		// IDs are "c<timestamp>-<seq>"; take the trailing number.
		i := strings.LastIndex(id, "-")
		if i < 0 {
			continue
		}
		if n, err := strconv.Atoi(id[i+1:]); err == nil && n > max {
			max = n
		}
	}
	return max
}

// replayControlLog reads the control journal at path into a ctlReplay.
// A missing file is a clean first boot. Records that decode but name no
// campaign, and records of unknown type, are skipped (compatibility over
// strictness).
func replayControlLog(path string) (*ctlReplay, error) {
	rep := &ctlReplay{byID: make(map[string]*ctlCampaign)}
	_, corrupt, err := store.ReplayLog(path, func(typ string, data json.RawMessage) {
		rep.lastType = typ
		switch typ {
		case ctlSubmit:
			var rec ctlSubmitRec
			if json.Unmarshal(data, &rec) != nil || rec.ID == "" {
				return
			}
			if _, ok := rep.byID[rec.ID]; !ok {
				rep.order = append(rep.order, rec.ID)
			}
			rep.byID[rec.ID] = &ctlCampaign{submit: rec}
		case ctlCancel:
			var rec ctlCancelRec
			if json.Unmarshal(data, &rec) != nil {
				return
			}
			if c, ok := rep.byID[rec.ID]; ok {
				c.canceled = true
			}
		case ctlTerminal:
			var rec ctlTerminalRec
			if json.Unmarshal(data, &rec) != nil {
				return
			}
			if c, ok := rep.byID[rec.ID]; ok {
				c.terminal = &rec
			}
		}
	})
	if err != nil {
		return nil, err
	}
	rep.corrupt = corrupt
	return rep, nil
}
