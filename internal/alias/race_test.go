//go:build race

package alias

func init() { raceEnabled = true }
