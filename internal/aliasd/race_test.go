//go:build race

package aliasd

func init() { raceEnabled = true }
