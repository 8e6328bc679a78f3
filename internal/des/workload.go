package des

import (
	"fmt"
	"math"
	"math/rand"
)

// DefaultArrivalRate is the per-process request rate (requests per
// virtual second) used when an Arrival is left zero.
const DefaultArrivalRate = 10_000

// ArrivalKind selects the arrival process shaping think times.
type ArrivalKind uint8

const (
	// Poisson arrivals: think times between a satisfied request and the
	// next are exponential with mean 1/Rate.
	Poisson ArrivalKind = iota + 1
	// Bursty arrivals: an MMPP-style on/off modulated Poisson process.
	// The system alternates between an "on" phase (rate Rate) and an
	// "off" phase (rate OffRate), with exponentially distributed phase
	// durations of means OnNs and OffNs. Storm-shaped workloads — a
	// quiet fleet that suddenly all wants the lock — live here.
	Bursty
)

// Arrival configures the request arrival process of every process.
type Arrival struct {
	Kind ArrivalKind
	// Rate is the per-process arrival rate (requests per virtual second)
	// of the Poisson process, or of the "on" phase when bursty.
	Rate float64
	// OffRate is the "off" phase arrival rate of the bursty process
	// (default Rate/50).
	OffRate float64
	// OnNs and OffNs are the mean phase durations of the bursty process
	// (defaults 200µs on, 800µs off).
	OnNs, OffNs int64
}

func (a *Arrival) fill() {
	if a.Kind == 0 {
		a.Kind = Poisson
	}
	if a.Rate == 0 {
		a.Rate = DefaultArrivalRate
	}
	if a.Kind == Bursty {
		if a.OffRate == 0 {
			a.OffRate = a.Rate / 50
		}
		if a.OnNs == 0 {
			a.OnNs = 200_000
		}
		if a.OffNs == 0 {
			a.OffNs = 800_000
		}
	}
}

// expNs draws an exponential duration with the given mean, in whole
// nanoseconds, never zero (virtual time must advance).
func expNs(rng *rand.Rand, meanNs float64) int64 {
	d := int64(rng.ExpFloat64() * meanNs)
	if d < 1 {
		d = 1
	}
	return d
}

// rateGapNs converts a per-second rate into a mean gap in nanoseconds.
func rateGapNs(rate float64) float64 { return 1e9 / rate }

// burstClock tracks the on/off phase of a bursty arrival process lazily:
// phases are advanced only when sampled, so the clock consumes randomness
// in a deterministic order without scheduling heap events.
type burstClock struct {
	on         bool
	nextToggle int64
	onNs       float64
	offNs      float64
}

func newBurstClock(a Arrival, rng *rand.Rand) *burstClock {
	b := &burstClock{on: true, onNs: float64(a.OnNs), offNs: float64(a.OffNs)}
	b.nextToggle = expNs(rng, b.onNs)
	return b
}

// phase reports whether the process is in its "on" phase at virtual time
// t, advancing through any phase boundaries passed since the last sample.
func (b *burstClock) phase(t int64, rng *rand.Rand) bool {
	for t >= b.nextToggle {
		b.on = !b.on
		if b.on {
			b.nextToggle += expNs(rng, b.onNs)
		} else {
			b.nextToggle += expNs(rng, b.offNs)
		}
	}
	return b.on
}

// thinkNs samples the think time before the next request arrival at
// virtual time t.
func (a Arrival) thinkNs(t int64, rng *rand.Rand, burst *burstClock) int64 {
	rate := a.Rate
	if a.Kind == Bursty && !burst.phase(t, rng) {
		rate = a.OffRate
	}
	return expNs(rng, rateGapNs(rate))
}

// Zipf samples ranks 0..n-1 with P(rank k) ∝ 1/(k+1)^s via an inverted
// CDF, matching the popularity skew of the rme.Map benchmarks. A
// dedicated implementation (rather than math/rand.Zipf) keeps the
// rank-frequency law directly testable and the consumed randomness to one
// Float64 per sample.
type Zipf struct {
	cdf []float64
}

// NewZipf builds a sampler over n ranks with skew s > 1.
func NewZipf(n int, s float64) (*Zipf, error) {
	if n < 1 {
		return nil, fmt.Errorf("des: zipf over %d ranks", n)
	}
	if s <= 1 {
		return nil, fmt.Errorf("des: zipf skew %v, want > 1", s)
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &Zipf{cdf: cdf}, nil
}

// Sample draws one rank.
func (z *Zipf) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// CrashKind selects the failure regime.
type CrashKind uint8

const (
	// NoCrashes injects nothing.
	NoCrashes CrashKind = iota
	// Uniform spreads Budget crashes over virtual time with exponential
	// gaps of mean MeanGapNs.
	Uniform
	// Storm injects correlated crash storms: storm onsets arrive with
	// exponential gaps of mean StormGapNs, and each storm fells
	// StormSize victims within a StormSpanNs window — the batch-failure
	// regime where the paper's adaptive bound is stressed hardest.
	Storm
)

// Crashes schedules failures in virtual time. Victims are chosen at fire
// time, preferring processes currently inside a passage (a crash in NCS
// is indistinguishable from no crash), and crash at their next
// instruction boundary at or after the scheduled instant.
type Crashes struct {
	Kind CrashKind
	// Budget is the total number of crashes to schedule.
	Budget int
	// MeanGapNs is the mean gap between uniform crashes (default 500µs).
	MeanGapNs int64
	// StormGapNs is the mean gap between storm onsets (default 2ms).
	StormGapNs int64
	// StormSize is the number of victims per storm (default 4).
	StormSize int
	// StormSpanNs is the window over which one storm's victims fall
	// (default 20µs).
	StormSpanNs int64
	// DownNs is the outage before a crashed process restarts (default
	// 50µs). Without it a crashed process restarts instantly and repairs
	// its own damage before any survivor runs into it.
	DownNs int64
}

func (c *Crashes) fill() error {
	if c.Kind == NoCrashes {
		if c.Budget != 0 {
			return fmt.Errorf("des: crash budget %d with no crash kind", c.Budget)
		}
		return nil
	}
	if c.Budget < 1 {
		return fmt.Errorf("des: crash kind %d with budget %d, want ≥ 1", c.Kind, c.Budget)
	}
	if c.MeanGapNs == 0 {
		c.MeanGapNs = 500_000
	}
	if c.StormGapNs == 0 {
		c.StormGapNs = 2_000_000
	}
	if c.StormSize == 0 {
		c.StormSize = 4
	}
	if c.StormSpanNs == 0 {
		c.StormSpanNs = 20_000
	}
	if c.DownNs == 0 {
		c.DownNs = 50_000
	}
	return nil
}

// schedule pushes the whole crash plan onto the event queue up front, so
// the timeline is fixed by the seed before the first grant.
func (c Crashes) schedule(q *eventQueue, rng *rand.Rand) {
	switch c.Kind {
	case Uniform:
		t := int64(0)
		for i := 0; i < c.Budget; i++ {
			t += expNs(rng, float64(c.MeanGapNs))
			q.push(t, evCrash, -1)
		}
	case Storm:
		t := int64(0)
		scheduled := 0
		for scheduled < c.Budget {
			t += expNs(rng, float64(c.StormGapNs))
			for i := 0; i < c.StormSize && scheduled < c.Budget; i++ {
				at := t + rng.Int63n(c.StormSpanNs)
				q.push(at, evCrash, -1)
				scheduled++
			}
		}
	}
}

// Stragglers marks a subset of processes as slow: every instruction they
// execute costs Factor times more virtual time. With OnNs/OffNs set the
// slowness is intermittent (alternating exponential phases); otherwise it
// is permanent. The highest-numbered Count processes are the stragglers,
// which keeps the set deterministic and disjoint from the low pids most
// tests pin.
type Stragglers struct {
	Count  int
	Factor int64
	// OnNs and OffNs are mean slow/healthy phase durations; both zero
	// means permanently slow.
	OnNs, OffNs int64
}

func (s *Stragglers) check(n int) error {
	if s.Count == 0 {
		return nil
	}
	if s.Count < 0 || s.Count > n {
		return fmt.Errorf("des: %d stragglers over %d processes", s.Count, n)
	}
	if s.Factor < 2 {
		return fmt.Errorf("des: straggler factor %d, want ≥ 2", s.Factor)
	}
	if (s.OnNs == 0) != (s.OffNs == 0) {
		return fmt.Errorf("des: intermittent stragglers need both OnNs and OffNs")
	}
	return nil
}

// schedule pushes the first slow phase (and, for intermittent stragglers,
// nothing further — toggles reschedule themselves as they fire).
func (s Stragglers) schedule(q *eventQueue, n int) {
	for i := 0; i < s.Count; i++ {
		q.push(0, evSlowOn, n-1-i)
	}
}

// Aborts gives every passage a deadline in virtual time — the TryLockFor
// shape. A process still waiting DeadlineNs after its passage started
// backs out at its next instruction boundary via the lock's abort
// protocol and re-issues the request after a fresh think time (a client
// timeout with backoff: the retried attempt is a new arrival, not an
// immediate re-queue).
type Aborts struct {
	// DeadlineNs is the per-passage deadline (0 = aborts disabled).
	DeadlineNs int64
}

// AbortDeadline returns a passage deadline that fires on a steady share
// of passages whatever the lock's speed: nine tenths of the p50 passage
// time p50Ns of a deadline-free run of the same traffic.
func AbortDeadline(p50Ns int64) int64 { return p50Ns * 9 / 10 }

func (a *Aborts) check() error {
	if a.DeadlineNs < 0 {
		return fmt.Errorf("des: abort deadline %dns, want ≥ 0", a.DeadlineNs)
	}
	return nil
}
