package localsearch

import (
	"reflect"
	"testing"

	"github.com/plcwifi/wolt/internal/model"
)

// utilityInstance is the hand-checked 3-user network from the model
// package's max-min tests: u0 and u1 reach only extender 0 (rate 100);
// u2 reaches extender 0 at rate 30 and extender 1 at rate 5. All three
// on extender 0 ("A-join") gives everyone 18.75 (aggregate ≈ 56.25);
// u2 alone on extender 1 ("B-join") gives aggregate 105 but a 5 Mbps
// minimum. Sum-rate and max-min therefore pull the search in opposite
// directions.
func utilityInstance() (*model.Network, model.Assignment, model.Assignment) {
	n := &model.Network{
		WiFiRates: [][]float64{
			{100, 0},
			{100, 0},
			{30, 5},
		},
		PLCCaps: []float64{1000, 1000},
	}
	return n, model.Assignment{0, 0, 0}, model.Assignment{0, 0, 1}
}

// TestHillClimbFollowsUtility: the identical instance, the identical
// start, opposite optima — the chosen utility member decides which way
// hill climbing moves.
func TestHillClimbFollowsUtility(t *testing.T) {
	n, aJoin, bJoin := utilityInstance()

	// Sum-rate: starting from the fair optimum, the search must walk to
	// the throughput optimum (move u2 off the shared extender).
	var s Searcher
	opts := Options{Model: model.Options{Redistribute: true}}
	res, err := s.Search(n, aJoin.Clone(), HillClimbing, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Assign, bJoin) {
		t.Fatalf("sum-rate hill climb ended at %v, want B-join %v", res.Assign, bJoin)
	}
	if res.Utility != res.Aggregate {
		t.Fatalf("sum-rate Utility %v != Aggregate %v", res.Utility, res.Aggregate)
	}

	// Max-min: starting from the throughput optimum, the search must
	// walk back to the fair one.
	var sm Searcher
	mmOpts := Options{Model: model.Options{Redistribute: true, Utility: model.Utility{MaxMin: true}}}
	mmRes, err := sm.Search(n, bJoin.Clone(), HillClimbing, mmOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mmRes.Assign, aJoin) {
		t.Fatalf("max-min hill climb ended at %v, want A-join %v", mmRes.Assign, aJoin)
	}
	if mmRes.Utility >= mmRes.Aggregate {
		t.Fatalf("max-min Utility %v should be the min share, below Aggregate %v",
			mmRes.Utility, mmRes.Aggregate)
	}
}

// TestSearchUtilityMatchesFullEvaluation extends the differential
// anytime contract across the utility family: for every method and
// several instances, the reported Utility and Aggregate are
// bit-identical (==) to a fresh full EvaluateWith of the returned
// assignment under the same options.
func TestSearchUtilityMatchesFullEvaluation(t *testing.T) {
	utilities := []model.Utility{
		model.ProportionalFairness(),
		model.AlphaFair(2),
		model.AlphaFair(0.5),
		model.Utility{MaxMin: true},
	}
	var scratch model.EvalScratch
	for _, u := range utilities {
		for _, base := range []int64{1, 42, 2020} {
			for _, method := range allMethods {
				n, start := searchInstance(base, 6, 40)
				var s Searcher
				opts := Options{
					Seed:  base,
					Model: model.Options{Redistribute: true, Utility: u},
				}
				res, err := s.Search(n, start, method, opts)
				if err != nil {
					t.Fatalf("%v base=%d %v: %v", u, base, method, err)
				}
				full, err := model.EvaluateWith(&scratch, n, res.Assign, opts.Model)
				if err != nil {
					t.Fatalf("%v base=%d %v: returned assignment invalid: %v", u, base, method, err)
				}
				if res.Utility != full.Utility {
					t.Fatalf("%v base=%d %v: Utility %v != fresh EvaluateWith %v",
						u, base, method, res.Utility, full.Utility)
				}
				if res.Aggregate != full.Aggregate {
					t.Fatalf("%v base=%d %v: Aggregate %v != fresh EvaluateWith %v",
						u, base, method, res.Aggregate, full.Aggregate)
				}
				if res.Utility < res.Start {
					t.Fatalf("%v base=%d %v: search lost ground: %v < start %v",
						u, base, method, res.Utility, res.Start)
				}
			}
		}
	}
}
