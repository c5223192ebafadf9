//go:build race

package cluster

// Under the race detector sync.Pool drops a random quarter of the items
// put back, so encoding/json's encoder cache misses at random and the
// handler's allocation count is no longer reproducible run to run.
func init() { raceEnabled = true }
