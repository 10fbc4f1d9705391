package makespan_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/experiment"
	"repro/internal/heuristics"
	"repro/internal/makespan"
	"repro/internal/robustness"
)

// pinnedMetrics are the metric vectors of the BenchmarkEvalCase
// schedules (cholesky n=1000, scenario seed 42, two random schedules
// drawn with rng seed 7) and of an fft twin, as the global spline fit
// of the Add kernel computed them, before the fit was windowed. Work
// grids there reach 8193 knots, so almost every Add runs the windowed
// solve. Each vector is in robustness.MetricNames order.
var pinnedMetrics = map[string][2][robustness.NumMetrics]float64{
	experiment.CholeskyFamily: {
		{6326.8454481318631, 22.577451585104022, 4.4466833131582444, 126819.31047530708, 143.03662085115889, 20.178652987297937, 0.0035105766572417485, 0.066622635935715269},
		{6167.0898395930681, 15.287778310592874, 4.1132216601170217, 109114.76727842829, 112.61729650661155, 14.570603092441161, 0.0045016061255271911, 0.083456633301207117},
	},
	experiment.FFTFamily: {
		{4716.5467548176684, 10.254847689392966, 3.5558617417401939, 118607.55655804163, 105.77060745089931, 11.174529075126884, 0.007387273473271172, 0.10451158779448833},
		{4920.4193809265889, 8.5625765990755713, 3.2375580054419721, 133924.94538612236, 109.62527432875453, 5.8780549354351024, 0.01082334065167978, 0.15974216759460941},
	},
}

// The windowed spline solve of the Add kernel must keep every metric of
// the large evaluation cases within 1e-12 relative of the global fit.
func TestWindowedAddPinnedMetrics(t *testing.T) {
	for _, fam := range []string{experiment.CholeskyFamily, experiment.FFTFamily} {
		spec := experiment.CaseSpec{Name: fam, Family: fam, N: 1000, M: 8, UL: 1.1, Seed: 42}
		scen, err := spec.BuildScenario()
		if err != nil {
			t.Fatal(err)
		}
		scheds := heuristics.RandomSchedules(scen, 2, rand.New(rand.NewSource(7)))
		cache := makespan.NewEvalCache(scen, 64)
		for i, s := range scheds {
			m, err := cache.Model(s)
			if err != nil {
				t.Fatal(err)
			}
			got := m.Metrics(robustness.DefaultParams()).Vector()
			want := pinnedMetrics[fam][i]
			for j := range want {
				if rel := math.Abs(got[j]-want[j]) / math.Abs(want[j]); !(rel <= 1e-12) {
					t.Errorf("%s schedule %d %s: got %.17g, pinned %.17g (relative error %.2g)",
						fam, i, robustness.MetricNames[j], got[j], want[j], rel)
				}
			}
		}
	}
}
