// Package scc stands in for an engine package that reads the host clock.
package scc

import "time"

// Stamp returns the host time, which simulated code must never read.
func Stamp() int64 { return time.Now().UnixNano() }
