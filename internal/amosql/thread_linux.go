package amosql

import "syscall"

// callerThread returns the id of the OS thread the caller runs on. It
// identifies the caller only while the caller's goroutine is locked to
// that thread (asHolder); one gettid, no stack walk.
func callerThread() (int64, bool) { return int64(syscall.Gettid()), true }
