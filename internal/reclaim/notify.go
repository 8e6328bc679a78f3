package reclaim

import "rme/internal/memory"

// The polling Pool is the paper's Algorithm 4 as written "for the CC
// model": the epoch's wait loop re-reads another process's sequence word,
// which is cached under CC but costs one RMR per poll under DSM. The
// paper notes that "a similar memory reclamation algorithm can be
// implemented for the DSM model using a notification based system"; this
// file is that system.
//
// A waiter that must wait for process k's sequence word to reach a
// threshold T registers the threshold in k's memory module (want[k][i] =
// T) and then spins on a word in its own module (ack[i][k]). Every Retire
// by k — unconditionally, so a crashed retire re-runs the scan — reads
// k's own want row (local under DSM) and acknowledges each satisfied
// registration with a single remote write. The waiter therefore performs
// O(1) RMRs per wait (register, one re-check to close the race with a
// retire that has already happened, local spin) instead of one per poll.
//
// Crash safety follows the usual discipline: registrations and
// acknowledgements are idempotent, stale acknowledgements are absorbed by
// re-checking the condition after every wake-up, and the unconditional
// scan in Retire guarantees a notification even if a previous retire
// crashed between bumping its sequence word and scanning.

// NotifyPool is the reclamation pool with DSM-friendly notification-based
// waiting. Allocation, retirement and the epoch step are identical to
// Pool; only the wait discipline differs.
type NotifyPool struct {
	Pool
	want [][]memory.Addr // want[k][i]: seq value i waits for k to reach (home k)
	ack  [][]memory.Addr // ack[i][k]: k's acknowledgement to i (home i)
}

// NewNotifyPool allocates notification-based reclamation state for n
// processes in sp.
func NewNotifyPool(sp memory.Space, n int) *NotifyPool {
	r := &NotifyPool{Pool: *NewPool(sp, n)}
	r.want = make([][]memory.Addr, n)
	r.ack = make([][]memory.Addr, n)
	for j := 0; j < n; j++ {
		r.want[j] = make([]memory.Addr, n)
		for i := 0; i < n; i++ {
			r.want[j][i] = sp.Alloc(1, j)
		}
	}
	for i := 0; i < n; i++ {
		r.ack[i] = make([]memory.Addr, n)
		for j := 0; j < n; j++ {
			r.ack[i][j] = sp.Alloc(1, i)
		}
	}
	return r
}

// NewNode implements core.NodeSource; see Pool.NewNode.
func (r *NotifyPool) NewNode(p memory.Port) memory.Addr { return r.newNode(p, r) }

// Retire implements core.NodeSource. Unlike the polling pool it always
// scans this process's registration row, so a retire interrupted between
// the sequence bump and the scan still notifies after recovery.
func (r *NotifyPool) Retire(p memory.Port) {
	s, i := r.retire(p), p.PID()
	for w := 0; w < r.n; w++ {
		if w == i {
			continue
		}
		t := p.Read(r.want[i][w]) // local read under DSM
		if t != 0 && t <= s {
			p.Write(r.want[i][w], 0)
			p.Write(r.ack[w][i], 1) // one remote write per ready waiter
		}
	}
}

// await blocks until seq[k] has passed the recorded odd value t (0: no
// wait), spinning only on a word in the waiter's own module, and returns
// the last value of seq[k] it read.
func (r *NotifyPool) await(p memory.Port, k int, t memory.Word) memory.Word {
	i := p.PID()
	// rme:rmw-loop(the want registration re-runs only after a stale ack from an earlier registration, at most once per outstanding retire, so the Write retry is bounded)
	for {
		if v := p.Read(r.seq[k]); t == 0 || v > t {
			return v
		}
		p.Write(r.want[k][i], t+1)
		// Close the race with a retire that ran before the
		// registration became visible to it.
		if v := p.Read(r.seq[k]); v > t {
			p.Write(r.want[k][i], 0)
			return v
		}
		for p.Read(r.ack[i][k]) == 0 {
			p.Pause()
		}
		p.Write(r.ack[i][k], 0)
		// A stale acknowledgement from an earlier registration may have
		// woken us; loop to re-check the condition.
	}
}
