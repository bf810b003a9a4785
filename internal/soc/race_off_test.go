//go:build !race

package soc

const raceEnabled = false
