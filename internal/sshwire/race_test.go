//go:build race

package sshwire_test

func init() { raceEnabled = true }
