package simnet

import (
	"os"
	"testing"

	"ringbft/internal/leakcheck"
)

// A network's scheduler goroutine lives from its first timed flight to
// Close; the leak gate runs after the whole suite, so a Close that leaves
// it behind fails the binary with its stack.
func TestMain(m *testing.M) {
	os.Exit(leakcheck.CheckMain(m))
}
