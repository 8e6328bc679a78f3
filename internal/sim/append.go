package sim

// MidAppend follows a run's events (it needs Config.RecordOps) and tracks
// the live processes that have executed an instruction labelled Label —
// a queue lock's FAS on its tail — and no instruction since. Such a
// process has appended its node but not yet persisted the FAS's result,
// so a queue reconstructed from shared memory shows its node as a
// sub-queue of its own for that step. Diagnostics that count sub-queues
// read them only while Settled. A crash ends the window: the crashed
// process's fragment is then the failure's.
type MidAppend struct {
	Label string
	pids  map[int]bool
}

// Observe updates the window from one event.
func (m *MidAppend) Observe(ev Event) {
	if ev.Kind != EvOp && ev.Kind != EvCrash {
		return
	}
	delete(m.pids, ev.PID)
	if ev.Kind == EvOp && ev.Op.Label == m.Label {
		if m.pids == nil {
			m.pids = make(map[int]bool)
		}
		m.pids[ev.PID] = true
	}
}

// Settled reports that no live process is between its FAS and its next
// instruction.
func (m *MidAppend) Settled() bool { return len(m.pids) == 0 }
