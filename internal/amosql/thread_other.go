//go:build !linux

package amosql

// callerThread stands in for a thread id where the platform offers none
// to Go: the goroutine id, which names the holder just as exclusively
// but costs goid's stack walk.
func callerThread() (int64, bool) { return goid() }
