//go:build race

package ident

func init() { raceEnabled = true }
