//go:build race

package fed

// raceEnabled: under the race detector sync.Pool drops a share of what
// is put back, so allocation counts mean nothing.
const raceEnabled = true
