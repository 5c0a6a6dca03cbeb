package cluster

import (
	"math"
	"sort"

	"casched/internal/agent"
	"casched/internal/stats"
)

// The Dispatcher's routing arithmetic: the cross-partition candidate
// comparison and the power-of-two-choices burst ordering, pure
// functions of the signals each member hands them.

// backlogTieFraction is the relative margin within which two
// partitions' projected backlogs count as equal for batch routing,
// deferring to the balanced in-flight signal (see TwoChoicesOrder).
// The band is wide: the backlog is a projection over an entire
// partition, and overriding balance pays off only on qualitative gaps
// (a drained partition vs a saturated one), not on comparable queues.
const backlogTieFraction = 0.5

// ClampIndex maps an arbitrary ShardPolicy.Assign answer into
// [0, n) — the defensive clamp applied before indexing the partition
// tables.
func ClampIndex(i, n int) int {
	if i < 0 || i >= n {
		i %= n
		if i < 0 {
			i += n
		}
	}
	return i
}

// BetterCandidate orders cross-partition winners: primary objective,
// then the heuristic's tie-break objective; remaining ties keep the
// earlier partition (callers iterate in index order, so stability
// falls out of strict comparison).
func BetterCandidate(a, b agent.Candidate) bool {
	if a.Score < b.Score-tieEps {
		return true
	}
	if a.Score > b.Score+tieEps {
		return false
	}
	return a.Tie < b.Tie-tieEps
}

// TwoChoicesOrder returns the partition indexes of idx in
// routing-preference order for one burst arriving at date at. The
// head is the power-of-two-choices winner: two distinct non-empty
// partitions — the cheap-signal leader (least in-flight per server,
// the classic hierarchical pick) and one sampled uniformly from the
// rest — compared on the HTM-backed score: the partition's projected
// backlog at the burst's arrival, max(0, minReady − at) (the arrival
// anchor makes drain instants from independently advancing partition
// clocks comparable). The smaller backlog wins; backlogs within
// backlogTieFraction of each other are a tie decided by the balanced
// in-flight signal — the backlog is a projection, and preferring a
// marginally sooner-draining partition over the balanced choice
// concentrates consecutive bursts on one partition's still-full
// traces. Biasing one choice to the cheap leader keeps the load
// spread of the pure least-loaded router (only two partitions are
// ever scored, so routing stays O(partitions) with O(1) reads per
// scored partition), while the uniform second choice plus the drain
// comparison corrects the in-flight signal where it misjudges actual
// work — many short tasks vs few long ones — and avoids herding when
// counts are stale. Partitions without a drain signal (monitor-only
// heuristics: minReady returns !ok) score by the in-flight signal
// directly. The remaining partitions follow ranked by the cheap
// signal, as eligibility fallbacks for requests the winner cannot
// solve.
//
// count, inFlight and minReady are read at most once per index.
func TwoChoicesOrder(idx []int, count func(int) int, inFlight func(int) int,
	minReady func(int) (float64, bool), at float64, rng *stats.RNG) []int {
	cheap := make(map[int]float64, len(idx))
	order := make([]int, 0, len(idx))
	var nonEmpty []int
	for _, i := range idx {
		order = append(order, i)
		if c := count(i); c > 0 {
			cheap[i] = float64(inFlight(i)) / float64(c)
			nonEmpty = append(nonEmpty, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return cheap[order[a]] < cheap[order[b]] })
	if len(nonEmpty) < 2 {
		return order
	}

	// Two choices: the cheap-signal leader — the first non-empty
	// partition of the freshly sorted ranking — and a uniform sample
	// from the other non-empty partitions; score just those.
	a := nonEmpty[0]
	for _, i := range order {
		if _, ok := cheap[i]; ok {
			a = i
			break
		}
	}
	b := a
	for b == a {
		b = nonEmpty[rng.Intn(len(nonEmpty))]
	}
	score := func(i int) float64 {
		if ready, ok := minReady(i); ok {
			return math.Max(0, ready-at)
		}
		return cheap[i]
	}
	sa, sb := score(a), score(b)
	// The sample overrides the leader only on a clear backlog margin;
	// within the tie band the leader stands — a is the cheap-ranking
	// minimum, so ties always resolve to it.
	winner := a
	if sb < sa && math.Abs(sa-sb) > backlogTieFraction*math.Max(sa, sb)+tieEps {
		winner = b
	}

	// Promote only the winner; the loser and the rest keep their
	// cheap-score ranking, so spill-over from requests the winner
	// cannot solve still goes to the next-best eligible partition
	// rather than to whatever partition the sample happened to draw.
	promoted := make([]int, 0, len(order))
	promoted = append(promoted, winner)
	for _, i := range order {
		if i != winner {
			promoted = append(promoted, i)
		}
	}
	return promoted
}
