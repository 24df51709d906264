package rjms

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/power"
	"repro/internal/reservation"
	"repro/internal/sched"
)

// backfillConfig is a 16-node, 128-core machine: small enough for a
// test, wide enough that dozens of jobs run side by side.
func backfillConfig(policy core.Policy) Config {
	return Config{
		Topology: cluster.Topology{Racks: 2, ChassisPerRack: 2, NodesPerChassis: 4, CoresPerNode: 8},
		Policy:   policy,
	}
}

// backfillWorkload is an over-subscribed mix: every fifth job is wide
// enough to block the queue head while the narrow ones backfill around
// it, and walltimes overestimate runtimes up to fourfold, so the shadow
// check both admits and discards plans.
func backfillWorkload(n int, seed int64) []*job.Job {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]*job.Job, n)
	for i := range jobs {
		cores := 1 + rng.Intn(16)
		if rng.Intn(5) == 0 {
			cores = 32 + rng.Intn(64)
		}
		rt := int64(60 + rng.Intn(1800))
		jobs[i] = &job.Job{
			ID:       job.ID(i + 1),
			User:     fmt.Sprintf("u%d", rng.Intn(4)),
			Cores:    cores,
			Submit:   int64(i * 15),
			Runtime:  rt,
			Walltime: rt * int64(1+rng.Intn(4)),
		}
	}
	return jobs
}

// newBackfillRun builds a controller on cfg with the backfill workload
// and an open-ended 80% powercap from t=1000 loaded.
func newBackfillRun(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c := mustNew(t, cfg)
	if err := c.LoadWorkload(backfillWorkload(400, 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReservePowerCap(1000, reservation.Horizon, power.CapFraction(0.8, c.Cluster().MaxPower())); err != nil {
		t.Fatal(err)
	}
	return c
}

// wrapPasses runs before and after (either may be nil) around every
// scheduling pass of c, including passes the pass memo skips.
func wrapPasses(c *Controller, before, after func(now int64)) {
	inner := c.passFn
	c.passFn = func(now int64) {
		if before != nil {
			before(now)
		}
		inner(now)
		if after != nil {
			after(now)
		}
	}
}

// span is the address range from a slice's first element to the end of
// its capacity. Slices cut from one backing array reach the same end,
// so two spans overlap exactly when the slices share a backing array.
type span struct{ lo, hi uintptr }

func allocSpan(a []job.Alloc) span {
	if cap(a) == 0 {
		return span{}
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
	return span{lo, lo + uintptr(cap(a))*unsafe.Sizeof(job.Alloc{})}
}

func (s span) overlaps(o span) bool { return s.lo < o.hi && o.lo < s.hi }

// TestCommitOwnsAllocations pins the plan/commit ownership contract:
// plan's allocs alias the probe scratch buffer and commit alone copies
// them into job state. After every pass, every running job's Allocs
// must cover exactly its cores on distinct nodes and share no backing
// array with allocBuf or with another running job — on each allocator
// path the plan can take.
func TestCommitOwnsAllocations(t *testing.T) {
	for _, tc := range []struct {
		name     string
		policy   core.Policy
		compact  bool
		reserved bool // switch-off reservations active: the preferring AllocateInto
	}{
		{"reserved-preferring", core.PolicyShut, false, true},
		{"plain", core.PolicyDvfs, false, false},
		{"compact", core.PolicyDvfs, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := backfillConfig(tc.policy)
			cfg.CompactPlacement = tc.compact
			c := newBackfillRun(t, cfg)
			if got := c.Cluster().ReservedCount() > 0; got != tc.reserved {
				t.Fatalf("reserved nodes present = %v, want %v", got, tc.reserved)
			}
			var spans []span
			maxRunning := 0
			wrapPasses(c, nil, func(now int64) {
				buf := allocSpan(c.allocBuf)
				spans = spans[:0]
				for _, j := range c.running {
					sum := 0
					nodes := map[cluster.NodeID]bool{}
					for _, a := range j.Allocs {
						sum += a.Cores
						if nodes[a.Node] {
							t.Fatalf("t=%d: job %d holds node %d twice: %v", now, j.ID, a.Node, j.Allocs)
						}
						nodes[a.Node] = true
					}
					if sum != j.Cores {
						t.Fatalf("t=%d: job %d allocs sum to %d cores, want %d: %v", now, j.ID, sum, j.Cores, j.Allocs)
					}
					s := allocSpan(j.Allocs)
					if s.overlaps(buf) {
						t.Fatalf("t=%d: job %d allocs alias the probe buffer", now, j.ID)
					}
					spans = append(spans, s)
				}
				sort.Slice(spans, func(i, k int) bool { return spans[i].lo < spans[k].lo })
				for i := 1; i < len(spans); i++ {
					if spans[i-1].overlaps(spans[i]) {
						t.Fatalf("t=%d: two running jobs share an allocation backing array", now)
					}
				}
				if len(c.running) > maxRunning {
					maxRunning = len(c.running)
				}
			})
			sum, err := c.Run(40000)
			if err != nil {
				t.Fatal(err)
			}
			sc := c.SchedCounters()
			if sc.PlansShadowRejected == 0 || sum.JobsLaunched < 100 || maxRunning < 10 {
				t.Fatalf("scenario not backfill-heavy: %d shadow rejections, %d launches, %d running at most",
					sc.PlansShadowRejected, sum.JobsLaunched, maxRunning)
			}
			if sc.PlansCommitted != uint64(sum.JobsLaunched) {
				t.Errorf("PlansCommitted = %d, launched %d", sc.PlansCommitted, sum.JobsLaunched)
			}
		})
	}
}

// TestDropStartedKeepsQueueOrder checks the pending queue's prefix
// compaction: after every pass, c.pending must equal the
// order-preserving filter of the queue before the pass to the jobs
// still pending. Backfill (FCFS) and the multifactor ordering both
// launch jobs from the middle of the queue; the test requires that it
// saw such passes.
func TestDropStartedKeepsQueueOrder(t *testing.T) {
	for _, prio := range []sched.PriorityPolicy{sched.FCFS, sched.Multifactor} {
		t.Run(fmt.Sprintf("priority=%d", prio), func(t *testing.T) {
			cfg := backfillConfig(core.PolicyShut)
			cfg.Priority = prio
			c := newBackfillRun(t, cfg)
			var before []*job.Job
			scattered := 0
			wrapPasses(c, func(int64) {
				before = append(before[:0], c.pending...)
			}, func(now int64) {
				k, sawPending, gap := 0, false, false
				for _, j := range before {
					if j.State != job.StatePending {
						gap = gap || sawPending
						continue
					}
					sawPending = true
					if k >= len(c.pending) || c.pending[k] != j {
						t.Fatalf("t=%d: pending[%d] is not job %d, the next still-pending job of the previous queue", now, k, j.ID)
					}
					k++
				}
				if k != len(c.pending) {
					t.Fatalf("t=%d: pending holds %d jobs, the filtered previous queue %d", now, len(c.pending), k)
				}
				if gap {
					scattered++
				}
			})
			if _, err := c.Run(40000); err != nil {
				t.Fatal(err)
			}
			if scattered == 0 {
				t.Fatal("no pass launched a job from behind a still-pending one")
			}
		})
	}
}

func TestDropStartedPanicsOnDesync(t *testing.T) {
	c := mustNew(t, tinyConfig(core.PolicyNone))
	c.pending = []*job.Job{{ID: 1, State: job.StatePending}, {ID: 2, State: job.StatePending}}
	defer func() {
		if recover() == nil {
			t.Error("dropStarted ran off the queue without panicking")
		}
	}()
	c.dropStarted(1)
}
