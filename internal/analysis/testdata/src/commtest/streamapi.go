// Stream-API error discipline: the root module's Stream.Run,
// Stream.Close and Cluster.Close return errors that carry the pass
// result and sticky failure state, so discarding one at statement
// position is flagged exactly like an Endpoint error.
package commtest

import (
	"kylix"
)

func DroppedStreamErrors(st *kylix.Stream, fn func(*kylix.Node) error) {
	st.Run(fn)       // want "Run error discarded"
	defer st.Close() // want "Close error discarded"
}

func DroppedClusterClose(c *kylix.Cluster) {
	defer c.Close() // want "Close error discarded"
}

func HandledStreamErrors(st *kylix.Stream, c *kylix.Cluster, fn func(*kylix.Node) error) error {
	if err := st.Run(fn); err != nil {
		return err
	}
	_ = st.Close() // deliberate discard passes
	defer func() { _ = c.Close() }()
	return nil
}

// AllowedDiscard documents a deliberate fire-and-forget teardown.
func AllowedDiscard(c *kylix.Cluster) {
	defer c.Close() //kylix:allow commcheck:discard -- demo teardown; errors land in the next pass anyway
}
