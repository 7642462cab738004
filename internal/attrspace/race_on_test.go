//go:build race

package attrspace

const raceEnabled = true
