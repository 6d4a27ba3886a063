package lockobstest

// Test files stay under the contract: a test helper that observes
// inside the section is flagged like shipped code.
func observeInTest(b *box) {
	b.mu.Lock()
	b.tr.CountRound() // want "CountRound called while b.mu is held"
	b.mu.Unlock()
}
