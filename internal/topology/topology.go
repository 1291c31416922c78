// Package topology describes a multi-process RingBFT deployment: the shard
// shape, the per-node TCP addresses, the client addresses, and the shared
// key seed. Both cmd/ringbft-node and cmd/ringbft-client load the same JSON
// file, so one artifact defines the whole cluster.
//
// The file is the deployment's trust root: the key seed deterministically
// derives every node's HMAC pairs and Ed25519 identity (package crypto), so
// replicas that load the same file authenticate each other with no runtime
// key exchange. The invariant Parse enforces is completeness — every
// (shard, index) in the declared shape must have a non-empty address, and
// the shape must admit f >= 1 (n >= 4 per shard) — because a partial table
// would surface later as silent unknown-peer drops in the transport rather
// than as a startup error.
//
// Protecting gates: topology_test.go rejects malformed and incomplete
// files, FuzzParseTopology holds every accepted file to a complete table,
// and the harness' TCP suite boots real clusters from generated topologies
// on every CI run.
package topology

import (
	"encoding/json"
	"fmt"
	"os"

	"ringbft/internal/crypto"
	"ringbft/internal/types"
)

// Topology is the shared deployment description.
type Topology struct {
	Shards           int               `json:"shards"`
	ReplicasPerShard int               `json:"replicasPerShard"`
	Records          int               `json:"records"`
	Seed             int64             `json:"seed"`
	Nodes            map[string]string `json:"nodes"` // "shard/index" -> host:port
	// Clients maps client ids to their listen addresses so replicas can
	// dial Response messages back (tcpnet addresses peers by NodeID).
	Clients map[string]string `json:"clients,omitempty"`
}

// Load reads and validates a topology file.
func Load(path string) (*Topology, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(raw, path)
}

// Parse validates raw JSON topology content.
func Parse(raw []byte, path string) (*Topology, error) {
	var t Topology
	if err := json.Unmarshal(raw, &t); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if t.Shards < 1 || t.ReplicasPerShard < 4 {
		return nil, fmt.Errorf("topology needs >= 1 shard and >= 4 replicas/shard")
	}
	if t.Records <= 0 {
		t.Records = 4096
	}
	if t.Seed == 0 {
		t.Seed = 1
	}
	for s := 0; s < t.Shards; s++ {
		for i := 0; i < t.ReplicasPerShard; i++ {
			if t.Nodes[Key(s, i)] == "" {
				return nil, fmt.Errorf("topology missing address for node %d/%d", s, i)
			}
		}
	}
	return &t, nil
}

// Key formats the node-table key for (shard, index).
func Key(shard, index int) string { return fmt.Sprintf("%d/%d", shard, index) }

// Addrs converts the topology's node and client tables into NodeID-keyed
// addresses.
func (t *Topology) Addrs() map[types.NodeID]string {
	out := make(map[types.NodeID]string, len(t.Nodes)+len(t.Clients))
	for s := 0; s < t.Shards; s++ {
		for i := 0; i < t.ReplicasPerShard; i++ {
			out[types.ReplicaNode(types.ShardID(s), i)] = t.Nodes[Key(s, i)]
		}
	}
	for id, addr := range t.Clients {
		var c int
		if _, err := fmt.Sscanf(id, "%d", &c); err == nil {
			out[types.ClientNode(types.ClientID(c))] = addr
		}
	}
	return out
}

// Keygen builds the deployment's shared key material: every process derives
// identical keys from the topology seed. This stands in for a PKI — the
// seed file must be distributed out of band like any root of trust.
func (t *Topology) Keygen() *crypto.Keygen {
	kg := crypto.NewKeygen(t.Seed)
	for s := 0; s < t.Shards; s++ {
		for i := 0; i < t.ReplicasPerShard; i++ {
			kg.Register(types.ReplicaNode(types.ShardID(s), i))
		}
	}
	return kg
}

// ClientRing returns the key ring for client c: the replica key table plus
// the client's own identity, so the client can verify the pairwise MACs
// replicas put on Response messages (and replicas can verify the client's).
func (t *Topology) ClientRing(c types.ClientID) (*crypto.KeyRing, error) {
	kg := t.Keygen()
	id := types.ClientNode(c)
	kg.Register(id)
	return kg.Ring(id)
}
