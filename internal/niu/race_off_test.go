//go:build !race

package niu

const raceEnabled = false
