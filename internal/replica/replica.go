// Package replica is the one rank map between the core protocol and the
// transport. It presents a subset of the physical machines (an elastic
// epoch's members, or all of them) as a dense cluster, replicated by a
// factor s for Kylix's fault tolerance (paper §V): the data and every
// protocol message are replicated s ways, and receivers race the replica
// copies, taking the first to arrive and cancelling the rest. n members
// present n/s logical machines; member i plays logical rank i mod n/s,
// and the logical messages to rank q are physically sent to members q,
// q+n/s, ..., q+(s-1)n/s. The protocol completes as long as at least
// one replica in every group survives; by the birthday paradox a
// factor-2 network survives about sqrt(pi*m/2) random failures in
// expectation.
package replica

import (
	"fmt"
	"math"

	"kylix/internal/comm"
)

// Wrap presents a physical endpoint as a logical endpoint over the given
// members (dense rank d is the physical rank members[d]; nil means every
// physical rank) replicated s ways. The member count must be divisible
// by s and ep's own rank must be a member. Wrapping all ranks with s=1
// returns the endpoint unchanged.
//
// The result is dense: the core protocol sees exactly the cluster shape
// a freshly built deployment of the members would have, which is what
// makes post-churn results bit-identical to a fresh Configure. Tags pass
// through untranslated.
func Wrap(ep comm.Endpoint, members []int, s int) (comm.Endpoint, error) {
	if s < 1 {
		return nil, fmt.Errorf("replica: replication factor %d must be >= 1", s)
	}
	if members == nil {
		if s == 1 {
			return ep, nil
		}
		members = make([]int, ep.Size())
		for p := range members {
			members[p] = p
		}
	}
	n := len(members)
	if n%s != 0 {
		return nil, fmt.Errorf("replica: %d members not divisible by replication factor %d", n, s)
	}
	logical := n / s
	e := &endpoint{phys: ep, copies: make([][]int, logical), of: make([]int, ep.Size())}
	for p := range e.of {
		e.of[p] = -1
	}
	for d, p := range members {
		if p < 0 || p >= ep.Size() {
			return nil, fmt.Errorf("replica: member %d outside physical cluster [0,%d)", p, ep.Size())
		}
		if e.of[p] != -1 {
			return nil, fmt.Errorf("replica: member %d listed twice", p)
		}
		e.of[p] = d % logical
	}
	if e.of[ep.Rank()] < 0 {
		return nil, fmt.Errorf("replica: rank %d is not a member", ep.Rank())
	}
	backing := make([]int, n)
	for q := range e.copies {
		c := backing[q*s : (q+1)*s : (q+1)*s]
		for j := range c {
			c[j] = members[q+j*logical]
		}
		e.copies[q] = c
	}
	return e, nil
}

// BirthdayBound estimates the expected number of uniformly random
// machine failures a factor-2 replicated m-machine network absorbs
// before some replica group is entirely dead — the sqrt(m)-ish bound the
// paper cites from the birthday paradox. (~sqrt(pi*m/2) for s=2.)
//
//kylix:deterministic
func BirthdayBound(m int) float64 { return math.Sqrt(math.Pi * float64(m) / 2) }

type endpoint struct {
	phys   comm.Endpoint
	copies [][]int // logical rank -> the physical ranks playing it, primary first
	of     []int   // physical rank -> logical rank (-1 for non-members)
}

func (e *endpoint) Rank() int { return e.of[e.phys.Rank()] }
func (e *endpoint) Size() int { return len(e.copies) }

func (e *endpoint) check(q int) error {
	if q < 0 || q >= len(e.copies) {
		return fmt.Errorf("replica: logical rank %d out of [0,%d)", q, len(e.copies))
	}
	return nil
}

// Send duplicates the message to every replica of the logical target.
// Transports drop the copies aimed at dead machines; live replicas race.
// A payload that fans out is deep-copied first: in-process transports
// deliver by reference, and the s receivers consume their copies at
// independent paces — a straggling replica may still be reading long
// after the sender's scratch arena has recycled the original buffers, so
// the replica layer must give the fan-out a lifetime of its own.
func (e *endpoint) Send(to int, tag comm.Tag, p comm.Payload) error {
	if err := e.check(to); err != nil {
		return err
	}
	if len(e.copies[to]) > 1 {
		p = p.Clone()
	}
	for _, pt := range e.copies[to] {
		if err := e.phys.Send(pt, tag, p); err != nil {
			return err
		}
	}
	return nil
}

// Recv races the replica copies of the logical sender — its one replica
// group: the first physical arrival wins and the transport cancels the
// rest (§V-B).
func (e *endpoint) Recv(from int, tag comm.Tag) (comm.Payload, error) {
	if err := e.check(from); err != nil {
		return nil, err
	}
	_, p, err := e.phys.RecvGroup(e.copies[from:from+1], tag)
	return p, err
}

// RecvGroup expands every logical sender into its physical replica set:
// each logical group becomes the union of its members' replicas, so a
// win cancels exactly the redundant physical copies of the same logical
// message while other groups stay deliverable. The winning physical
// rank maps back to the logical sender it plays.
func (e *endpoint) RecvGroup(groups [][]int, tag comm.Tag) (int, comm.Payload, error) {
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	phys := make([][]int, len(groups))
	backing := make([]int, 0, len(e.copies[0])*total)
	for i, g := range groups {
		start := len(backing)
		for _, q := range g {
			if err := e.check(q); err != nil {
				return 0, nil, err
			}
			backing = append(backing, e.copies[q]...)
		}
		phys[i] = backing[start:len(backing):len(backing)]
	}
	winner, p, err := e.phys.RecvGroup(phys, tag)
	if err != nil {
		return 0, nil, err
	}
	return e.of[winner], p, nil
}

func (e *endpoint) Close() error { return e.phys.Close() }
