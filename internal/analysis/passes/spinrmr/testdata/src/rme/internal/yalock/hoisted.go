package yalock

import "rme/internal/memory"

// good spins: condition re-reads through the Port and the body pauses.
func waitLocked(p memory.Port, a memory.Addr) {
	for memory.AsBool(p.Read(a)) {
		p.Pause()
	}
}

// good: unconditional loop that re-reads in its body before breaking.
func waitBody(p memory.Port, a memory.Addr) {
	for {
		if p.Read(a) == 0 {
			break
		}
		p.Pause()
	}
}

// good: a counted loop bounded by a count read from the Port is no spin:
// its exit tests n, a private copy, but also j, which the loop assigns.
func countedFromPort(p memory.Port, base memory.Addr) {
	n := int(p.Read(base))
	for j := 1; j <= n; j++ {
		p.Write(base+memory.Addr(j), 0)
	}
	p.Write(base, 0)
}

// bad: the condition tests a private copy hoisted out of the loop.
func hoisted(p memory.Port, a memory.Addr) {
	v := p.Read(a)
	for memory.AsBool(v) { // want `spin exits on a private copy of shared memory`
		p.Pause()
	}
}

// bad: spin re-reads but never pauses (native backend would burn CPU).
func noPause(p memory.Port, a memory.Addr) {
	for p.Read(a) != 0 { // want `cached-read spin has no Port.Pause backoff`
	}
}

// bad: read-only unconditional wait without a Pause.
func noPauseBody(p memory.Port, a memory.Addr) {
	for { // want `cached-read spin has no Port.Pause backoff`
		if p.Read(a) == 0 {
			return
		}
	}
}

// bad: pauses forever on a stale private copy.
func staleForever(p memory.Port, a memory.Addr) {
	v := p.Read(a)
	for { // want `spin exits on a private copy of shared memory`
		if v == 0 {
			return
		}
		p.Pause()
	}
}

// good: the hoisted value is reassigned (re-read) inside the loop.
func rereads(p memory.Port, a memory.Addr) {
	v := p.Read(a)
	for memory.AsBool(v) {
		p.Pause()
		v = p.Read(a)
	}
}

// good: plain counted loop over private configuration is no spin.
func counted(p memory.Port, a memory.Addr, n int) {
	for j := 0; j < n; j++ {
		p.Write(a, memory.Word(j))
	}
}

// suppressed: explicit waiver.
func waived(p memory.Port, a memory.Addr) {
	v := p.Read(a)
	for memory.AsBool(v) { // rme:allow(spinrmr: fixture demonstrating suppression)
		p.Pause()
	}
}

// bad: a hoisted copy without a Pause spins just as blindly.
func hoistedNoPause(p memory.Port, a memory.Addr) {
	v := p.Read(a)
	for v != 0 { // want `spin exits on a private copy of shared memory`
	}
}

// bad: a loop that only pauses has no exit at all.
func pauseForever(p memory.Port) {
	for { // want `spin pauses forever without re-reading shared memory`
		p.Pause()
	}
}

// good: a loop that re-reads in its condition but can also leave through
// a local counter in a separate block is a bounded poll, not a spin.
func boundedPoll(p memory.Port, a memory.Addr) bool {
	for j := 0; p.Read(a) != 0; {
		if j++; j > 8 {
			return false
		}
	}
	return true
}

// good: the loop steps its private copy itself, so the exit is a local
// bound, not a wait.
func halving(p memory.Port, a memory.Addr) {
	for v := p.Read(a); v != 0; v = v >> 1 {
		p.Pause()
	}
}

// good: a range loop over a port-loaded slice advances its own iterator.
func rangedCopy(p memory.Port, a memory.Addr) {
	words := []memory.Word{p.Read(a), p.Read(a + 1)}
	for range words {
		p.Pause()
	}
}
