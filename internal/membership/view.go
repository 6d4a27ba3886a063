package membership

import (
	"fmt"

	"kylix/internal/comm"
)

// View presents the member subset of a physical transport as a dense
// [0, len(members)) cluster: rank i of the view is the i-th member in
// sorted physical-rank order. The data plane runs each epoch over a
// View, so the core protocol and the replica layer see exactly the
// cluster shape a freshly built deployment of the surviving machines
// would have — which is what makes post-churn results bit-identical to
// a fresh Configure and lets Config.Digest() act as the cutover oracle.
//
// Tags pass through untranslated: the underlying mailbox/tag space is
// shared across epochs, and round-base accounting above the view keeps
// successive epochs' tags disjoint.
type View struct {
	ep      comm.Endpoint
	rank    int   // dense rank of this machine
	members []int // dense -> physical
	dense   []int // physical -> dense (-1 for non-members)
}

// NewView wraps ep as the dense member view. The endpoint's physical
// rank must be a member.
func NewView(ep comm.Endpoint, members []int) (*View, error) {
	v := &View{ep: ep, members: append([]int(nil), members...)}
	v.dense = make([]int, ep.Size())
	for i := range v.dense {
		v.dense[i] = -1
	}
	for d, p := range v.members {
		if p < 0 || p >= ep.Size() {
			return nil, fmt.Errorf("membership: member %d outside physical cluster [0,%d)", p, ep.Size())
		}
		if v.dense[p] != -1 {
			return nil, fmt.Errorf("membership: member %d listed twice", p)
		}
		v.dense[p] = d
	}
	v.rank = v.dense[ep.Rank()]
	if v.rank < 0 {
		return nil, fmt.Errorf("membership: rank %d is not a member of the view", ep.Rank())
	}
	return v, nil
}

// Rank implements comm.Endpoint (the dense member rank).
func (v *View) Rank() int { return v.rank }

// Size implements comm.Endpoint (the member count).
func (v *View) Size() int { return len(v.members) }

func (v *View) phys(dense int) (int, error) {
	if dense < 0 || dense >= len(v.members) {
		return 0, fmt.Errorf("membership: dense rank %d outside view [0,%d)", dense, len(v.members))
	}
	return v.members[dense], nil
}

// Send implements comm.Endpoint.
func (v *View) Send(to int, tag comm.Tag, p comm.Payload) error {
	pt, err := v.phys(to)
	if err != nil {
		return err
	}
	return v.ep.Send(pt, tag, p)
}

// Recv implements comm.Endpoint.
func (v *View) Recv(from int, tag comm.Tag) (comm.Payload, error) {
	pf, err := v.phys(from)
	if err != nil {
		return nil, err
	}
	return v.ep.Recv(pf, tag)
}

// RecvGroup implements comm.Endpoint.
func (v *View) RecvGroup(groups [][]int, tag comm.Tag) (int, comm.Payload, error) {
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	phys := make([][]int, len(groups))
	backing := make([]int, 0, total)
	for i, g := range groups {
		start := len(backing)
		for _, f := range g {
			pf, err := v.phys(f)
			if err != nil {
				return 0, nil, err
			}
			backing = append(backing, pf)
		}
		phys[i] = backing[start:len(backing):len(backing)]
	}
	winner, p, err := v.ep.RecvGroup(phys, tag)
	if err != nil {
		return 0, nil, err
	}
	return v.dense[winner], p, nil
}

// Close implements comm.Endpoint.
func (v *View) Close() error { return v.ep.Close() }
