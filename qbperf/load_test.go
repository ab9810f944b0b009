package main

import (
	"testing"
	"time"
)

func phaseWith(rate float64, offered, inTime, backlog int64, lats ...time.Duration) *phase {
	p := &phase{rate: rate, offered: offered, inTime: inTime, backlog: backlog}
	for _, l := range lats {
		p.all.Record(l)
	}
	return p
}

func repeat(d time.Duration, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = d
	}
	return out
}

func TestMeetsSLO(t *testing.T) {
	fast := repeat(5*time.Millisecond, 1000)
	cases := []struct {
		name string
		p    *phase
		want bool
	}{
		{"all fast", phaseWith(1000, 1000, 1000, 0, fast...), true},
		{"nothing offered", phaseWith(1000, 0, 0, 0), false},
		// 1% of ops slow: the p99 rank still lands on a fast op.
		{"1% slow", phaseWith(1000, 1000, 1000, 0, append(repeat(5*time.Millisecond, 990), repeat(2*sloP99, 10)...)...), true},
		{"2% slow", phaseWith(1000, 1000, 1000, 0, append(repeat(5*time.Millisecond, 980), repeat(2*sloP99, 20)...)...), false},
		// Failed or unissued ops are misses: 2% missing fails the p99.
		{"2% missing", phaseWith(1000, 1000, 980, 0, repeat(5*time.Millisecond, 980)...), false},
		{"below 95% achieved", phaseWith(1000, 1000, 940, 0, fast...), false},
		// 600 ops behind at 1000 ops/s is 600 ms of backlog.
		{"growing backlog", phaseWith(1000, 1000, 1000, 600, fast...), false},
		{"backlog within SLO", phaseWith(1000, 1000, 1000, 400, fast...), true},
	}
	for _, c := range cases {
		if got := c.p.meetsSLO(); got != c.want {
			t.Errorf("%s: meetsSLO = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSearchCapacityBracketsTheKnee(t *testing.T) {
	for _, budget := range []int{3, 8, 16} {
		for _, rungs := range []int{1, 2, 7, 40} {
			for knee := -1; knee < rungs; knee++ {
				for _, start := range []int{0, rungs / 2, rungs - 1, rungs + 3} {
					probes := 0
					got := searchCapacity(rungs, start, budget, func(k int) bool {
						probes++
						if k < 0 || k >= rungs {
							t.Fatalf("probed rung %d outside [0,%d)", k, rungs)
						}
						return k <= knee
					})
					if probes > budget {
						t.Errorf("budget=%d rungs=%d knee=%d start=%d: %d probes", budget, rungs, knee, start, probes)
					}
					// Sixteen probes close the bracket from any start.
					if budget == 16 && (got < float64(knee) || got > float64(knee+1)) {
						t.Errorf("rungs=%d knee=%d start=%d: estimate %.2f, want within [%d, %d]", rungs, knee, start, got, knee, knee+1)
					}
				}
			}
		}
	}
}

func TestSearchCapacityAveragesANoisyKnee(t *testing.T) {
	// Rung 20 passes every other time: the staircase keeps probing it
	// and its neighbours, and the estimate lands between 19 and 21.
	calls := 0
	got := searchCapacity(40, 18, 12, func(k int) bool {
		calls++
		switch {
		case k < 20:
			return true
		case k > 20:
			return false
		default:
			return calls%2 == 0
		}
	})
	if got < 19 || got > 21 {
		t.Errorf("estimate %.2f, want within [19, 21]", got)
	}
}

func TestLadderRate(t *testing.T) {
	if got := ladderRate(100, 1.1, 0); got != 100 {
		t.Errorf("rung 0 = %v", got)
	}
	if got := ladderRate(100, 1.1, 2); got < 120.99 || got > 121.01 {
		t.Errorf("rung 2 = %v", got)
	}
}
