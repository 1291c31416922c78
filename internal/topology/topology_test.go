package topology

import (
	"testing"

	"ringbft/internal/types"
)

func validJSON() []byte {
	return []byte(`{
		"shards": 1, "replicasPerShard": 4, "seed": 7,
		"nodes": {"0/0":"h:1","0/1":"h:2","0/2":"h:3","0/3":"h:4"}
	}`)
}

func TestParseValid(t *testing.T) {
	topo, err := Parse(validJSON(), "test")
	if err != nil {
		t.Fatal(err)
	}
	if topo.Records != 4096 {
		t.Fatalf("Records default %d, want 4096", topo.Records)
	}
	addrs := topo.Addrs()
	if addrs[types.ReplicaNode(0, 2)] != "h:3" {
		t.Fatal("address mapping wrong")
	}
	if _, err := topo.Keygen().Ring(types.ReplicaNode(0, 3)); err != nil {
		t.Fatal("keygen did not register all replicas")
	}
}

func TestParseRejectsBadShapes(t *testing.T) {
	for _, raw := range []string{
		`{"shards":0,"replicasPerShard":4,"nodes":{}}`,
		`{"shards":1,"replicasPerShard":3,"nodes":{}}`,
		`{"shards":1,"replicasPerShard":4,"nodes":{"0/0":"a"}}`,
		`not json`,
	} {
		if _, err := Parse([]byte(raw), "test"); err == nil {
			t.Fatalf("accepted bad topology: %s", raw)
		}
	}
}

// FuzzParseTopology: the deployment file is read from disk, so arbitrary
// bytes must either be rejected or yield a complete table — an address for
// every (shard, index) and exactly Shards×ReplicasPerShard replica entries
// in Addrs — and never panic.
func FuzzParseTopology(f *testing.F) {
	f.Add(validJSON())
	f.Add([]byte(`{"shards":2,"replicasPerShard":4,"nodes":{"0/0":"a","0/1":"b","0/2":"c","0/3":"d",` +
		`"1/0":"e","1/1":"f","1/2":"g","1/3":"h"},"clients":{"1":"i","x":"j","0/0":"k"}}`))
	f.Add([]byte(`{"shards":1,"replicasPerShard":4,"nodes":{"0/0":"","0/1":"b","0/2":"c","0/3":"d"}}`))
	f.Add([]byte(`{"shards":1,"replicasPerShard":4,"nodes":{"0/0":"a"}}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		topo, err := Parse(raw, "fuzz")
		if err != nil {
			return
		}
		addrs := topo.Addrs()
		replicas := 0
		for id := range addrs {
			if id.Kind == types.KindReplica {
				replicas++
			}
		}
		if replicas != topo.Shards*topo.ReplicasPerShard {
			t.Fatalf("Addrs holds %d replicas, want %d×%d", replicas, topo.Shards, topo.ReplicasPerShard)
		}
		for s := 0; s < topo.Shards; s++ {
			for i := 0; i < topo.ReplicasPerShard; i++ {
				if addrs[types.ReplicaNode(types.ShardID(s), i)] == "" {
					t.Fatalf("accepted topology has no address for node %d/%d", s, i)
				}
			}
		}
	})
}
