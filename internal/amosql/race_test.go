//go:build race

package amosql

func init() { raceEnabled = true }
