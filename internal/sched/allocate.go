package sched

import (
	"math/bits"

	"repro/internal/cluster"
	"repro/internal/job"
)

// Allocate finds cores for a job on the cluster — AllocateInto with a
// fresh buffer, no preference and a node filter: eligible (nil accepts
// all powered-on nodes) is folded into a blocked mask once. Returns nil
// when the request cannot be satisfied.
func Allocate(c *cluster.Cluster, cores int, eligible func(cluster.NodeID) bool) []job.Alloc {
	var blocked cluster.NodeMask
	if eligible != nil {
		blocked = cluster.NewNodeMask(c.Nodes())
		for id := cluster.NodeID(0); int(id) < c.Nodes(); id++ {
			if !eligible(id) {
				blocked.Set(id)
			}
		}
	}
	allocs, found := AllocateInto(nil, c, cores, blocked, false)
	if !found {
		return nil
	}
	return allocs
}

// AllocateInto finds cores for a job, appending into dst[:0]. It packs
// partially used busy nodes first (cheapest under the powercap: the
// paper notes jobs "filling partially used nodes will always pass the
// powercapping criteria"), then idle nodes, each in ascending ID order.
// Off nodes are never used, and neither are nodes in blocked (nil or a
// short mask blocks nothing beyond its length). With preferReserved,
// nodes earmarked for an upcoming switch-off are packed before the
// others (busy-partial first within each class): work placed there
// drains away before the window while the surviving nodes' power
// budget is saved for jobs that outlast it.
//
// The walk reads the cluster's candidate indexes a word at a time —
// (set &^ blocked) & reserved, then (set &^ blocked) &^ reserved — so a
// probe costs a few word operations per 64 nodes plus one step per
// node taken. A scheduling pass probes allocations for many jobs per
// event and most probes fail, so the caller passes one reused buffer:
// the returned slice always carries the (possibly grown) buffer, and
// found reports whether it holds a complete allocation. The slice
// aliases dst's backing array — callers that retain a successful
// allocation (e.g. in job state) must copy it out first.
func AllocateInto(dst []job.Alloc, c *cluster.Cluster, cores int, blocked cluster.NodeMask, preferReserved bool) (allocs []job.Alloc, found bool) {
	allocs = dst[:0]
	if cores <= 0 {
		return allocs, false
	}
	busy, idle, reserved := c.AllocIndex()
	need := cores
	if preferReserved {
		allocs, need = take(allocs, need, c, busy, blocked, reserved, onlyReserved)
		allocs, need = take(allocs, need, c, idle, blocked, reserved, onlyReserved)
		allocs, need = take(allocs, need, c, busy, blocked, reserved, skipReserved)
		allocs, need = take(allocs, need, c, idle, blocked, reserved, skipReserved)
	} else {
		allocs, need = take(allocs, need, c, busy, blocked, nil, anyReserved)
		allocs, need = take(allocs, need, c, idle, blocked, nil, anyReserved)
	}
	return allocs, need <= 0
}

// Reserved-flag filters of one take over a candidate index.
const (
	anyReserved = iota
	onlyReserved
	skipReserved
)

// take appends nodes of set in ascending ID order, minus blocked and
// filtered by the reserved flag, until need cores are covered; a met
// request takes nothing more. It returns the grown allocs and the
// cores still needed.
func take(allocs []job.Alloc, need int, c *cluster.Cluster, set, blocked, reserved cluster.NodeMask, filter int) ([]job.Alloc, int) {
	if need <= 0 {
		return allocs, need
	}
	for i, word := range set {
		if i < len(blocked) {
			word &^= blocked[i]
		}
		switch filter {
		case onlyReserved:
			word &= reserved[i]
		case skipReserved:
			word &^= reserved[i]
		}
		for ; word != 0; word &= word - 1 {
			id := cluster.NodeID(i<<6 + bits.TrailingZeros64(word))
			grab := c.FreeCores(id)
			if grab > need {
				grab = need
			}
			allocs = append(allocs, job.Alloc{Node: id, Cores: grab})
			if need -= grab; need <= 0 {
				return allocs, need
			}
		}
	}
	return allocs, need
}
