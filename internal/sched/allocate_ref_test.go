package sched

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dvfs"
	"repro/internal/job"
	"repro/internal/power"
)

// FreeCores returns the total free cores on powered-on nodes accepted by
// eligible (nil accepts all) — the capacity bound the allocation
// properties check against.
func FreeCores(c *cluster.Cluster, eligible func(cluster.NodeID) bool) int {
	total := 0
	c.ForEach(func(n cluster.NodeInfo) bool {
		if n.State == cluster.StateOff {
			return true
		}
		if eligible != nil && !eligible(n.ID) {
			return true
		}
		total += c.FreeCores(n.ID)
		return true
	})
	return total
}

// refAllocateInto is the per-node closure walk the word-parallel
// AllocateInto replaced, kept as its differential oracle. It scans
// every node through ForEach (so it also cross-checks the cluster's
// candidate indexes) and asks eligible and prefer node by node:
// preferred busy-partial, preferred idle, then the rest busy-partial
// and idle, each in ascending ID order.
func refAllocateInto(dst []job.Alloc, c *cluster.Cluster, cores int, eligible, prefer func(cluster.NodeID) bool) ([]job.Alloc, bool) {
	if cores <= 0 {
		return dst[:0], false
	}
	need := cores
	allocs := dst[:0]
	walk := func(st cluster.NodeState, preferred bool) {
		c.ForEach(func(n cluster.NodeInfo) bool {
			if need <= 0 {
				return false
			}
			free := c.FreeCores(n.ID)
			if n.State != st || free <= 0 {
				return true
			}
			if prefer != nil && prefer(n.ID) != preferred {
				return true
			}
			if eligible != nil && !eligible(n.ID) {
				return true
			}
			grab := free
			if grab > need {
				grab = need
			}
			allocs = append(allocs, job.Alloc{Node: n.ID, Cores: grab})
			need -= grab
			return true
		})
	}
	if prefer != nil {
		walk(cluster.StateBusy, true)
		walk(cluster.StateIdle, true)
	}
	walk(cluster.StateBusy, false)
	if need > 0 {
		walk(cluster.StateIdle, false)
	}
	return allocs, need <= 0
}

// randomAllocCluster builds a cluster whose node count is rarely a
// multiple of 64, with a random mix of off, idle, partially and fully
// busy nodes and random switch-off reservation flags.
func randomAllocCluster(t *testing.T, rng *rand.Rand) *cluster.Cluster {
	t.Helper()
	topo := cluster.Topology{
		Racks:           1 + rng.Intn(3),
		ChassisPerRack:  1 + rng.Intn(5),
		NodesPerChassis: 1 + rng.Intn(23),
		CoresPerNode:    1 + rng.Intn(8),
	}
	c, err := cluster.New(topo, power.CurieProfile(), cluster.CurieOverhead())
	if err != nil {
		t.Fatal(err)
	}
	per := topo.CoresPerNode
	for id := cluster.NodeID(0); int(id) < c.Nodes(); id++ {
		switch rng.Intn(5) {
		case 0:
			err = c.PowerOff(id)
		case 1:
			if per > 1 {
				err = c.Occupy(id, 1+rng.Intn(per-1), dvfs.F2000)
			}
		case 2:
			err = c.Occupy(id, per, dvfs.F2700)
		}
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(3) == 0 {
			if err := c.SetReserved(id, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

// randomBlockedMask returns nil, a mask shorter than the cluster's
// index, or one at least as long, with random density — including bits
// past the last node.
func randomBlockedMask(rng *rand.Rand, nodes int) cluster.NodeMask {
	words := (nodes + 63) / 64
	var n int
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		n = rng.Intn(words)
	default:
		n = words + rng.Intn(2)
	}
	density := rng.Intn(5) // of 8: 0 blocks nothing, 4 blocks half
	mask := make(cluster.NodeMask, n)
	for w := range mask {
		for b := 0; b < 64; b++ {
			if rng.Intn(8) < density {
				mask[w] |= 1 << uint(b)
			}
		}
	}
	return mask
}

// TestAllocateIntoMatchesClosureWalk is the differential property test
// of the word-parallel walk: on random cluster states, blocked masks and
// core requests, AllocateInto must return exactly the allocations (the
// same nodes, cores and order, partial results included) and the same
// found verdict as the closure walk, with and without the
// reserved-node preference, while reusing one buffer across probes.
func TestAllocateIntoMatchesClosureWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(20150525))
	var buf, refBuf []job.Alloc
	probes, foundCount, preferredFirst := 0, 0, 0
	for trial := 0; trial < 300; trial++ {
		c := randomAllocCluster(t, rng)
		for k := 0; k < 12; k++ {
			blocked := randomBlockedMask(rng, c.Nodes())
			eligible := func(id cluster.NodeID) bool { return !blocked.Has(id) }
			cores := rng.Intn(c.Cores()+2) - 1
			if rng.Intn(2) == 0 {
				cores = rng.Intn(3*c.Topology().CoresPerNode + 1)
			}
			for _, prefer := range []bool{false, true} {
				var preferFn func(cluster.NodeID) bool
				if prefer {
					preferFn = c.Reserved
				}
				want, wantFound := refAllocateInto(refBuf, c, cores, eligible, preferFn)
				refBuf = want[:0]
				got, gotFound := AllocateInto(buf, c, cores, blocked, prefer)
				buf = got[:0]
				if gotFound != wantFound || !reflect.DeepEqual(append([]job.Alloc{}, got...), append([]job.Alloc{}, want...)) {
					t.Fatalf("trial %d: %d cores, prefer=%v, topology %+v:\n got %v found=%v\nwant %v found=%v",
						trial, cores, prefer, c.Topology(), got, gotFound, want, wantFound)
				}
				probes++
				if gotFound {
					foundCount++
					if prefer && len(got) > 1 && c.Reserved(got[0].Node) && !c.Reserved(got[len(got)-1].Node) {
						preferredFirst++
					}
				}
			}
		}
	}
	// The random states must exercise both verdicts and a preference
	// that actually reorders the walk.
	if foundCount == 0 || foundCount == probes || preferredFirst == 0 {
		t.Fatalf("weak coverage: %d of %d probes found, %d preferring allocations mixed reserved and unreserved nodes",
			foundCount, probes, preferredFirst)
	}
}
