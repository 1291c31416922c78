package harness

import (
	"time"

	"ringbft/internal/types"
)

// Client is one client's table of outstanding requests: the paper's client
// rules, written once. Harness runs, the chaos engine, ringbft.Cluster.Submit
// and cmd/ringbft-client each drive one with their own clock and transport.
//
// A fresh request goes to the Topology's Entry in the last view the client
// has seen of the initiator shard (RCC, where every replica leads, offsets it
// by the client id). A request older than the caller's timeout is due for a
// rebroadcast to the Topology's Fallback (attack A1). A request is answered
// once its types.ReplyQuorum holds: identical results from f+1 replicas of
// the initiator shard, all n for Zyzzyva's speculative fast path, nf for
// PoE. A Client is not safe for concurrent use.
type Client struct {
	topo *Topology
	id   types.ClientID
	need int
	reqs map[types.Digest]*Request
	view map[types.ShardID]types.View // latest view a response carried
}

// Request is one outstanding request of a Client.
type Request struct {
	Batch   *types.Batch
	Msg     *types.Message // the client request, resent as is
	Started time.Time      // when Send first sent it
	Results []types.Value  // the agreed results, once answered

	sent    time.Time // the last (re)send
	replies *types.ReplyQuorum
}

// NewClient starts client id's empty table on topo.
func NewClient(topo *Topology, id types.ClientID) *Client {
	n := len(topo.shards[0])
	need := (n-1)/3 + 1
	switch topo.protocol {
	case ProtoZyzzyva:
		need = n
	case ProtoPoE:
		need = n - (n-1)/3
	}
	return &Client{
		topo: topo, id: id, need: need,
		reqs: make(map[types.Digest]*Request),
		view: make(map[types.ShardID]types.View),
	}
}

// Send records batch b as outstanding from now and returns the node to
// send it to and the request message.
func (c *Client) Send(b *types.Batch, now time.Time) (types.NodeID, *types.Message) {
	d := b.Digest()
	m := &types.Message{Type: types.MsgClientRequest, From: types.ClientNode(c.id), Batch: b, Digest: d}
	c.reqs[d] = &Request{
		Batch: b, Msg: m, Started: now, sent: now,
		replies: types.NewReplyQuorum(b, d, len(c.topo.shards[0]), c.need),
	}
	v := c.view[b.Initiator()]
	if c.topo.protocol == ProtoRCC {
		v += types.View(c.id)
	}
	return c.topo.Entry(b, v), m
}

// Deliver counts m. Any replica's response moves the view hint of its
// shard forward; a response that completes a request's quorum removes the
// request and returns it with its results, otherwise Deliver returns nil.
func (c *Client) Deliver(m *types.Message) *Request {
	if m.Type != types.MsgResponse {
		return nil
	}
	if m.From.Kind == types.KindReplica && m.View > c.view[m.From.Shard] {
		c.view[m.From.Shard] = m.View
	}
	r := c.reqs[m.Digest]
	if r == nil {
		return nil
	}
	res, ok := r.replies.Add(m)
	if !ok {
		return nil
	}
	delete(c.reqs, m.Digest)
	r.Results = res
	return r
}

// Due returns, in digest order, the requests last sent more than timeout
// before now, and re-arms each from now. The caller rebroadcasts each one
// to the Topology's Fallback.
func (c *Client) Due(now time.Time, timeout time.Duration) []*Request {
	var out []*Request
	for _, d := range types.SortedDigestKeys(c.reqs) {
		if r := c.reqs[d]; now.Sub(r.sent) > timeout {
			r.sent = now
			out = append(out, r)
		}
	}
	return out
}

// Drop forgets the request with digest d, unanswered.
func (c *Client) Drop(d types.Digest) { delete(c.reqs, d) }

// Len is the number of outstanding requests.
func (c *Client) Len() int { return len(c.reqs) }
