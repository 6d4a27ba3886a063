package stream

import (
	"errors"
	"testing"

	"kylix/internal/comm"
)

func TestRegistryAdmission(t *testing.T) {
	r := NewRegistry(2)
	a, err := r.Open()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Open()
	if err != nil {
		t.Fatal(err)
	}
	if a == b || a == comm.DefaultStream || b == comm.DefaultStream {
		t.Fatalf("bad ids %d %d", a, b)
	}
	if _, err := r.Open(); !errors.Is(err, ErrTooManyStreams) {
		t.Fatalf("err = %v, want ErrTooManyStreams", err)
	}
	r.Close(a)
	c, err := r.Open()
	if err != nil {
		t.Fatal(err)
	}
	// IDs are never reused: a recycled id could match late in-flight
	// frames of its previous owner.
	if c == a || c == b {
		t.Fatalf("id %d reused", c)
	}
	// Close is idempotent and tolerant of unknown ids.
	r.Close(a)
	r.Close(9999)
	if r.Active() != 2 {
		t.Fatalf("active = %d, want 2", r.Active())
	}
}

func TestRegistryExhaustion(t *testing.T) {
	r := NewRegistry(0) // unbounded admission, bounded id space
	r.next = 0xFFFF
	if id, err := r.Open(); err != nil || id != 0xFFFF {
		t.Fatalf("last id: %d, %v", id, err)
	}
	if _, err := r.Open(); !errors.Is(err, ErrIDsExhausted) {
		t.Fatalf("err = %v, want ErrIDsExhausted", err)
	}
}

// TestRegistryClaim pins the rule between derived networks and
// tenants: a claimed id is never issued, claiming is idempotent, and an
// id Open has issued — open or closed — cannot be claimed.
func TestRegistryClaim(t *testing.T) {
	r := NewRegistry(0)
	if err := r.Claim(1); err != nil {
		t.Fatal(err)
	}
	if err := r.Claim(1); err != nil {
		t.Fatalf("second claim: %v", err)
	}
	a, err := r.Open()
	if err != nil {
		t.Fatal(err)
	}
	if a != 2 {
		t.Fatalf("Open issued %d, want 2 (1 is claimed)", a)
	}
	r.Close(a)
	for _, id := range []comm.StreamID{comm.DefaultStream, a} {
		if err := r.Claim(id); err == nil {
			t.Fatalf("claimed id %d", id)
		}
	}
	if err := r.Claim(1); err != nil {
		t.Fatalf("claim after Open: %v", err)
	}
}
