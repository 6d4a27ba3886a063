// Package replica implements Kylix's fault tolerance (paper §V): the
// data and every protocol message are replicated by a factor s, and
// receivers race the replica copies, taking the first to arrive and
// cancelling the rest. A cluster of m physical machines presents m/s
// logical machines; machine i plays logical rank i mod m/s, and the
// logical messages to rank q are physically sent to q, q+m/s, ...,
// q+(s-1)m/s. The protocol completes as long as at least one replica in
// every group survives; by the birthday paradox a factor-2 network
// survives about sqrt(pi*m/2) random failures in expectation.
package replica

import (
	"fmt"
	"math"

	"kylix/internal/comm"
)

// Wrap presents a physical endpoint as a logical endpoint of a cluster
// replicated s ways. The physical cluster size must be divisible by s.
// Wrapping with s=1 returns the endpoint unchanged.
func Wrap(ep comm.Endpoint, s int) (comm.Endpoint, error) {
	if s < 1 {
		return nil, fmt.Errorf("replica: replication factor %d must be >= 1", s)
	}
	if s == 1 {
		return ep, nil
	}
	if ep.Size()%s != 0 {
		return nil, fmt.Errorf("replica: cluster size %d not divisible by replication factor %d", ep.Size(), s)
	}
	return &endpoint{phys: ep, s: s, logical: ep.Size() / s}, nil
}

// LogicalRank maps a physical rank to the logical rank it plays in an
// s-replicated cluster of physical size m.
//
//kylix:deterministic
func LogicalRank(physRank, m, s int) int { return physRank % (m / s) }

// Replicas lists the physical machines playing logical rank q in an
// s-replicated cluster of physical size m, primary first.
//
//kylix:deterministic
func Replicas(q, m, s int) []int {
	logical := m / s
	out := make([]int, s)
	for j := 0; j < s; j++ {
		out[j] = q + j*logical
	}
	return out
}

// BirthdayBound estimates the expected number of uniformly random
// machine failures a factor-2 replicated m-machine network absorbs
// before some replica group is entirely dead — the sqrt(m)-ish bound the
// paper cites from the birthday paradox. (~sqrt(pi*m/2) for s=2.)
//
//kylix:deterministic
func BirthdayBound(m int) float64 { return math.Sqrt(math.Pi * float64(m) / 2) }

type endpoint struct {
	phys    comm.Endpoint
	s       int
	logical int
}

func (e *endpoint) Rank() int { return e.phys.Rank() % e.logical }
func (e *endpoint) Size() int { return e.logical }

// Send duplicates the message to every replica of the logical target.
// Transports drop the copies aimed at dead machines; live replicas race.
// The payload is deep-copied first: in-process transports deliver by
// reference, and the s receivers consume their copies at independent
// paces — a straggling replica may still be reading long after the
// sender's scratch arena has recycled the original buffers, so the
// replica layer must give the fan-out a lifetime of its own.
func (e *endpoint) Send(to int, tag comm.Tag, p comm.Payload) error {
	if to < 0 || to >= e.logical {
		return fmt.Errorf("replica: logical rank %d out of [0,%d)", to, e.logical)
	}
	p = p.Clone()
	for j := 0; j < e.s; j++ {
		if err := e.phys.Send(to+j*e.logical, tag, p); err != nil {
			return err
		}
	}
	return nil
}

// Recv races the replica copies of the logical sender — its one replica
// group: the first physical arrival wins and the transport cancels the
// rest (§V-B).
func (e *endpoint) Recv(from int, tag comm.Tag) (comm.Payload, error) {
	_, p, err := e.phys.RecvGroup([][]int{Replicas(from, e.phys.Size(), e.s)}, tag)
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
	backing := make([]int, 0, e.s*total)
	for i, g := range groups {
		start := len(backing)
		for _, q := range g {
			for j := 0; j < e.s; j++ {
				backing = append(backing, q+j*e.logical)
			}
		}
		phys[i] = backing[start:len(backing):len(backing)]
	}
	winner, p, err := e.phys.RecvGroup(phys, tag)
	if err != nil {
		return 0, nil, err
	}
	return winner % e.logical, p, nil
}

func (e *endpoint) Close() error { return e.phys.Close() }
