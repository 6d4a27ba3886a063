// Package membership is the elastic control plane: an epoch-numbered,
// leader-coordinated view of which physical ranks currently make up the
// cluster, maintained live over the same comm transports the data plane
// uses. It turns the paper's frozen Configure-time member set into a
// runtime quantity — nodes join, leave and are replaced while replica
// racing (§V) keeps the data plane serving through the transition.
//
// The protocol is gossip-convergent rather than RPC-reliable, because
// the transports underneath may be wrapped in a fault fabric that
// drops, duplicates, delays and reorders control traffic like any
// other: every agent periodically broadcasts its full committed state
// (plus any pending proposal and endorsement) in a single idempotent
// message type, so lost messages cost latency, never correctness.
// Epochs are totally ordered by (Epoch, Leader) — higher epoch wins,
// ties resolve toward the lower-ranked committing leader — and agents
// adopt any record that supersedes their own, so all survivors converge
// to the newest committed record along any gossip path.
//
// Epoch transitions follow the paper-faithful cutover discipline:
// drain (bounded quiesce of in-flight collective rounds), re-derive
// butterfly degrees for the new logical size via internal/powerlaw,
// rewire (the next Cluster.Run configures machines over the new members,
// mapped to dense replicated ranks by replica.Wrap), and cut over
// atomically — the new epoch's Config.Digest() is the all-survivors-agree
// oracle.
package membership

import (
	"fmt"
	"hash/fnv"
	"sort"

	"kylix/internal/powerlaw"
	"kylix/internal/topo"
)

// Record is one committed (or proposed) epoch: the member set, the
// butterfly degrees its topology uses, and the identity of the leader
// that committed it. Records are immutable once built; agents exchange
// and compare them by Digest.
type Record struct {
	// Epoch is the record's position in the epoch sequence (the initial
	// membership is epoch 1; 0 means "no record").
	Epoch uint64
	// Leader is the rank that committed (or proposes) the record.
	Leader int
	// Members lists the member physical ranks, sorted ascending.
	Members []int
	// Degrees is the butterfly degree vector spanning
	// len(Members)/replication logical machines.
	Degrees []int
}

// Clone returns a deep copy.
func (r Record) Clone() Record {
	r.Members = append([]int(nil), r.Members...)
	r.Degrees = append([]int(nil), r.Degrees...)
	return r
}

// Digest returns a 64-bit FNV-1a fingerprint of the record. Two agents
// whose records share a digest agree on the epoch bit-for-bit; the
// digest is also how proposal acknowledgements name the proposal they
// endorse.
//
//kylix:deterministic
func (r Record) Digest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		_, _ = h.Write(buf[:])
	}
	word(r.Epoch)
	word(uint64(int64(r.Leader)))
	word(uint64(len(r.Members)))
	for _, m := range r.Members {
		word(uint64(int64(m)))
	}
	word(uint64(len(r.Degrees)))
	for _, d := range r.Degrees {
		word(uint64(int64(d)))
	}
	return h.Sum64()
}

// Supersedes reports whether r is strictly newer than o in the total
// order agents adopt by: higher epoch first, lower committing leader on
// ties (the quorum rule makes equal-epoch conflicts unreachable in a
// connected majority; the leader tiebreak closes the partitioned
// corner deterministically).
//
//kylix:deterministic
func (r Record) Supersedes(o Record) bool {
	if r.Epoch != o.Epoch {
		return r.Epoch > o.Epoch
	}
	if r.Leader != o.Leader {
		return r.Leader < o.Leader
	}
	return false
}

// HasMember reports whether rank is in the member set.
//
//kylix:deterministic
func (r Record) HasMember(rank int) bool {
	for _, m := range r.Members {
		if m == rank {
			return true
		}
	}
	return false
}

// Change is one requested membership delta: ranks to add and ranks to
// remove, applied together as a single epoch transition (a replacement
// is one Change with both sides filled).
type Change struct {
	Add    []int
	Remove []int
}

// Apply computes the successor record for a change proposed by
// `proposer` on a cluster replicated s ways: it validates the delta
// (adds must be new, removes must be present, the surviving count must
// stay positive and divisible by s), sorts the new member set, and
// re-derives degrees when the logical size changed — keeping the
// current degree vector when it did not, so a Replace never perturbs
// the topology.
//
//kylix:deterministic
func (ch Change) Apply(cur Record, s, proposer int) (Record, error) {
	if s < 1 {
		return Record{}, fmt.Errorf("membership: replication %d must be >= 1", s)
	}
	next := map[int]bool{}
	for _, m := range cur.Members {
		next[m] = true
	}
	for _, r := range ch.Remove {
		if !next[r] {
			return Record{}, fmt.Errorf("membership: rank %d is not a member", r)
		}
		delete(next, r)
	}
	for _, a := range ch.Add {
		if cur.HasMember(a) {
			return Record{}, fmt.Errorf("membership: rank %d is already a member", a)
		}
		if next[a] {
			return Record{}, fmt.Errorf("membership: rank %d added twice", a)
		}
		next[a] = true
	}
	if len(next) == 0 {
		return Record{}, fmt.Errorf("membership: change leaves no members")
	}
	if len(next)%s != 0 {
		return Record{}, fmt.Errorf("membership: %d survivors not divisible by replication %d", len(next), s)
	}
	members := make([]int, 0, len(next))
	for m := range next {
		members = append(members, m)
	}
	sort.Ints(members)
	degrees := append([]int(nil), cur.Degrees...)
	if len(members) != len(cur.Members) {
		degrees = DeriveDegrees(len(members) / s)
	}
	return Record{
		Epoch:   cur.Epoch + 1,
		Leader:  proposer,
		Members: members,
		Degrees: degrees,
	}, nil
}

// LeaderOf returns the coordinator for a member set under a suspicion
// predicate: the lowest-ranked member not currently suspected (every
// agent treats itself as unsuspected). If all members are suspected the
// lowest member is returned — some coordinator beats none.
//
//kylix:deterministic
func LeaderOf(members []int, suspected func(rank int) bool) int {
	if len(members) == 0 {
		return -1
	}
	for _, m := range members {
		if suspected == nil || !suspected(m) {
			return m
		}
	}
	return members[0]
}

// DeriveDegrees runs the §IV design workflow with the canonical
// elastic-profile parameters to pick butterfly degrees for a new
// logical size. The profile is fixed so every agent — and a freshly
// built cluster of the same final membership — derives the identical
// vector from the size alone; workloads with better knowledge of their
// data shape can override per-epoch degrees at the Cluster level. Falls
// back to the direct (single-layer) topology if the designer balks.
//
//kylix:deterministic
func DeriveDegrees(logical int) []int {
	if logical <= 1 {
		return []int{1}
	}
	d, err := powerlaw.Design(powerlaw.DesignInput{
		N:         1 << 20,
		Alpha:     1.3,
		Density0:  0.05,
		Machines:  logical,
		ElemBytes: 4,
		MinPacket: 32 * 1024,
	})
	if err != nil {
		return topo.Direct(logical)
	}
	return d
}
