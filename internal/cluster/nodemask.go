package cluster

// NodeMask is a bit vector over node IDs: bit id%64 of word id/64
// stands for node id. It is the one node-set layout the allocation
// path shares — the cluster's candidate indexes (see AllocIndex), the
// reservation book's switch-off membership and the probe's blocked set
// — so a probe combines sets 64 nodes per word operation instead of
// testing them node by node.
type NodeMask []uint64

// NewNodeMask returns an empty mask with room for node IDs [0, nodes).
func NewNodeMask(nodes int) NodeMask { return make(NodeMask, (nodes+63)/64) }

// Has reports whether node id is in the mask; IDs beyond its length
// (or negative) are not.
func (m NodeMask) Has(id NodeID) bool {
	w := int(id) >> 6
	return id >= 0 && w < len(m) && m[w]&(1<<(uint(id)&63)) != 0
}

// Set adds node id, which must be within the mask's length.
func (m NodeMask) Set(id NodeID) { m[id>>6] |= 1 << (uint(id) & 63) }

func (m NodeMask) unset(id NodeID) { m[id>>6] &^= 1 << (uint(id) & 63) }
