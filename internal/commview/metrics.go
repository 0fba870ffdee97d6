package commview

import "bpart/internal/traceview"

// Summary is the derived communication topology of one run: the matrix
// summed over its supersteps plus the balance metrics the paper's 2D-claim
// is judged on.
type Summary struct {
	Machines   int
	Supersteps int
	// Matrix is the run-total src→dst matrix.
	Matrix [][]int64
	// Out[i] and In[i] are machine i's total sent and received messages
	// (row and column sums of Matrix).
	Out []int64
	In  []int64
	// Messages is the run's total cross-machine traffic (ΣMatrix).
	Messages int64
	// ImbalanceRatio is max_i(In[i]+Out[i]) / mean_i(In[i]+Out[i]) over
	// live machines — 1.0 is a perfectly flat topology; the comm analogue
	// of the paper's Fig 12 balance metric. Machines with zero traffic in
	// both directions are treated as dead and excluded from the mean.
	ImbalanceRatio float64
	// PairJain is Jain's fairness index over the off-diagonal pair loads:
	// 1.0 when every machine pair carries equal traffic, 1/(K·(K−1)) when
	// a single pair carries everything.
	PairJain float64
	// ActivePairs counts (src,dst) pairs with nonzero run-total traffic.
	ActivePairs int
	// The hottest pair and its lead over the runner-up pair — the comm
	// analogue of traceview's straggler slack: HotSlack is how much the
	// hot pair's load would have to drop before attribution moves.
	HotSrc      int
	HotDst      int
	HotMessages int64
	HotSlack    int64
	// PerStepMessages[s] is superstep s's total traffic and
	// PerStepActivePairs[s] its nonzero pair count — the report's
	// per-superstep evolution table.
	PerStepMessages    []int64
	PerStepActivePairs []int
}

// Summarize derives the Summary of one run (as split by traceview.GroupRuns). An
// empty run yields a zero Summary.
func Summarize(run []traceview.Superstep) Summary {
	s := Summary{Supersteps: len(run)}
	if len(run) == 0 {
		return s
	}
	k := len(run[0].Compute)
	s.Machines = k
	s.Matrix = make([][]int64, k)
	for i := range s.Matrix {
		s.Matrix[i] = make([]int64, k)
	}
	s.Out = make([]int64, k)
	s.In = make([]int64, k)
	s.PerStepMessages = make([]int64, len(run))
	s.PerStepActivePairs = make([]int, len(run))
	for idx, st := range run {
		for i, row := range st.Work.Pairs {
			for j, n := range row {
				if n == 0 {
					continue
				}
				s.Matrix[i][j] += n
				s.PerStepMessages[idx] += n
				s.PerStepActivePairs[idx]++
			}
		}
	}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			n := s.Matrix[i][j]
			s.Out[i] += n
			s.In[j] += n
			s.Messages += n
			if n > 0 {
				s.ActivePairs++
			}
		}
	}
	s.ImbalanceRatio = imbalance(s.In, s.Out)
	s.PairJain = pairJain(s.Matrix)
	s.HotSrc, s.HotDst, s.HotMessages, s.HotSlack = hotPair(s.Matrix)
	return s
}

// imbalance is max(in+out) over mean(in+out), counting only machines with
// any traffic (a restreamed-away machine would otherwise drag the mean).
func imbalance(in, out []int64) float64 {
	var max, sum int64
	live := 0
	for i := range in {
		t := in[i] + out[i]
		if t == 0 {
			continue
		}
		live++
		sum += t
		if t > max {
			max = t
		}
	}
	if live == 0 || sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(live)
	return float64(max) / mean
}

// pairJain is Jain's fairness index (Σx)²/(n·Σx²) over every off-diagonal
// cell — including the zero ones, so a topology where one pair carries all
// traffic scores 1/(K·(K−1)), not 1.
func pairJain(m [][]int64) float64 {
	var sum, sumSq float64
	n := 0
	for i, row := range m {
		for j, x := range row {
			if i == j {
				continue
			}
			n++
			f := float64(x)
			sum += f
			sumSq += f * f
		}
	}
	if n == 0 || sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(n) * sumSq)
}

// hotPair finds the heaviest off-diagonal cell and its lead over the
// runner-up. Ties resolve to the lowest (src, dst) in row-major order, so
// reports are deterministic — the same convention as traceview's
// argmaxSlack.
func hotPair(m [][]int64) (src, dst int, max, slack int64) {
	src, dst = -1, -1
	var second int64
	seen := 0
	for i, row := range m {
		for j, x := range row {
			if i == j {
				continue
			}
			seen++
			if seen == 1 || x > max {
				if seen > 1 {
					second = max
				}
				src, dst, max = i, j, x
			} else if seen == 2 || x > second {
				second = x
			}
		}
	}
	if seen <= 1 {
		return src, dst, max, 0
	}
	return src, dst, max, max - second
}
