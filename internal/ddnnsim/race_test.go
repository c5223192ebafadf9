//go:build race

package ddnnsim

// Under the race detector sync.Pool drops a random quarter of the items
// put back, so fmt's printer cache misses at random and the simulator's
// allocation count is no longer reproducible run to run.
func init() { raceEnabled = true }
