package crypto

import (
	"sync/atomic"

	"ringbft/internal/types"
)

// CountingAuth wraps an Authenticator and counts the Ed25519 calls that
// reach it. Tests and gates that assert a signature budget share it, and the
// chaos engine counts every run through it. Calls whose message Apart matches
// (when set) are tallied separately, for periodic traffic that is not part of
// a per-block budget. Safe for concurrent use.
type CountingAuth struct {
	Authenticator
	Apart func(msg []byte) bool

	Signs, Verifies           atomic.Int64
	ApartSigns, ApartVerifies atomic.Int64
}

func (c *CountingAuth) apart(msg []byte) bool { return c.Apart != nil && c.Apart(msg) }

// Sign counts the call and delegates.
func (c *CountingAuth) Sign(msg []byte) []byte {
	if c.apart(msg) {
		c.ApartSigns.Add(1)
	} else {
		c.Signs.Add(1)
	}
	return c.Authenticator.Sign(msg)
}

// Verify counts the call and delegates.
func (c *CountingAuth) Verify(signer types.NodeID, msg, sig []byte) error {
	if c.apart(msg) {
		c.ApartVerifies.Add(1)
	} else {
		c.Verifies.Add(1)
	}
	return c.Authenticator.Verify(signer, msg, sig)
}
