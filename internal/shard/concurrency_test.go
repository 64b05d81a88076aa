package shard

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/plcwifi/wolt/internal/control"
	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/strategy"
)

// TestCoordinatorConcurrentStress drives concurrent Join/Update/Leave
// traffic from several goroutines — plus a Stats poller — against the
// lock-striped coordinator, then checks that the merged counters add
// up, that Stats and StatsWithAssignment agree once traffic has
// stopped, and that the final association is valid. Run it under
// -race: the lock protocol (stripe → ascending member IDs, cross-shard
// handoffs taking both member locks) is exactly what it exercises.
func TestCoordinatorConcurrentStress(t *testing.T) {
	const (
		numExt    = 16
		workers   = 6
		usersEach = 80
		leaveEach = 30
		updates   = 2
	)
	coord, err := NewCoordinator(Config{
		Shards: 4,
		EngineConfig: control.EngineConfig{
			PLCCaps:            testCaps(numExt),
			Policy:             "wolt-hillclimb",
			ModelOpts:          model.Options{Redistribute: true},
			Seed:               404,
			Budget:             strategy.Budget{Probes: 50},
			ReassignOnLeave:    true,
			PlacementOnlyJoins: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	randRates := func(r *rand.Rand) []float64 {
		rates := make([]float64, numExt)
		for j := range rates {
			rates[j] = 1 + 99*r.Float64()
		}
		return rates
	}

	var traffic sync.WaitGroup
	done := make(chan struct{})

	// Stats poller: merged counters must be readable (and internally
	// consistent enough to not crash) without stopping the traffic. It
	// is deliberately outside the traffic WaitGroup — it runs until the
	// traffic drains.
	pollerDone := make(chan struct{})
	go func() {
		defer close(pollerDone)
		for {
			select {
			case <-done:
				return
			default:
				// Stats is a monotone merge, not a point-in-time cut: a
				// user mid-handoff may be double-counted (or missed) as
				// members are visited one by one, so only weak sanity
				// holds mid-flight.
				st := coord.Stats()
				if st.Users < 0 || st.Joins < 0 {
					t.Errorf("implausible mid-flight stats: %+v", st)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()

	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		traffic.Add(1)
		go func(w int) {
			defer traffic.Done()
			r := rand.New(rand.NewSource(int64(1000 + w)))
			base := w * usersEach
			for i := 0; i < usersEach; i++ {
				if _, err := coord.Join(base+i, randRates(r), nil); err != nil {
					errs <- err
					return
				}
			}
			for k := 0; k < updates; k++ {
				for i := 0; i < usersEach; i++ {
					if _, err := coord.Update(base+i, randRates(r), nil); err != nil {
						errs <- err
						return
					}
				}
			}
			for i := 0; i < leaveEach; i++ {
				if _, ok := coord.Leave(base + i); !ok {
					t.Errorf("worker %d: leave of joined user %d reported absent", w, base+i)
					return
				}
			}
		}(w)
	}
	traffic.Wait()
	close(done)
	<-pollerDone
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	const wantUsers = workers * (usersEach - leaveEach)
	st := checkStatsAgree(t, coord)
	if st.Joins != workers*usersEach {
		t.Errorf("merged Joins = %d, want %d", st.Joins, workers*usersEach)
	}
	if st.Leaves != workers*leaveEach {
		t.Errorf("merged Leaves = %d, want %d", st.Leaves, workers*leaveEach)
	}
	if st.Users != wantUsers {
		t.Errorf("merged Users = %d, want %d", st.Users, wantUsers)
	}

	// Final association validity: complete, in range, and in agreement
	// with the member engines' own tables.
	if len(st.Assignment) != wantUsers {
		t.Fatalf("merged assignment has %d entries, want %d", len(st.Assignment), wantUsers)
	}
	perShardUsers := 0
	for _, es := range st.PerShard {
		perShardUsers += es.Users
		for id, ext := range es.Assignment {
			if st.Assignment[id] != ext {
				t.Errorf("user %d: merged assignment %d, member reports %d", id, st.Assignment[id], ext)
			}
		}
	}
	if perShardUsers != wantUsers {
		t.Errorf("per-shard user counts sum to %d, want %d", perShardUsers, wantUsers)
	}
	for id, ext := range st.Assignment {
		if ext == model.Unassigned || ext < 0 || ext >= numExt {
			t.Errorf("user %d ended on invalid extender %d", id, ext)
		}
	}
}
