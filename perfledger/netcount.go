package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// countingNet wraps the in-memory transport in the traced run: it counts
// messages and payload bytes per send and times each Send call, so the
// transport layer is priced from outside without touching its code.
type countingNet struct {
	inner transport.Network

	msgs, ctlBytes, dataBytes atomic.Int64

	mu  sync.Mutex
	eps []*countingEndpoint
}

func newCountingNet(inner transport.Network) *countingNet {
	return &countingNet{inner: inner}
}

func (n *countingNet) Register(addr transport.Addr) (transport.Endpoint, error) {
	ep, err := n.inner.Register(addr)
	if err != nil {
		return nil, err
	}
	ce := &countingEndpoint{Endpoint: ep, net: n}
	n.mu.Lock()
	n.eps = append(n.eps, ce)
	n.mu.Unlock()
	return ce, nil
}

func (n *countingNet) Close() error { return n.inner.Close() }

// netCounts is a snapshot of the wrapper's counters.
type netCounts struct {
	msgs, ctlBytes, dataBytes int64
	marks                     []int // send-time samples held per endpoint
}

func (n *countingNet) counts() netCounts {
	c := netCounts{msgs: n.msgs.Load(), ctlBytes: n.ctlBytes.Load(), dataBytes: n.dataBytes.Load()}
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, ep := range n.eps {
		ep.mu.Lock()
		c.marks = append(c.marks, len(ep.sendNs))
		ep.mu.Unlock()
	}
	return c
}

// sendTimes returns the Send durations (ns) recorded between the
// per-endpoint marks of two counts snapshots.
func (n *countingNet) sendTimes(from, to []int) []float64 {
	var out []float64
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, ep := range n.eps {
		if i >= len(from) || i >= len(to) {
			break
		}
		ep.mu.Lock()
		for _, ns := range ep.sendNs[from[i]:to[i]] {
			out = append(out, float64(ns))
		}
		ep.mu.Unlock()
	}
	return out
}

type countingEndpoint struct {
	transport.Endpoint
	net *countingNet

	mu     sync.Mutex
	sendNs []int64
}

func (e *countingEndpoint) Send(msg transport.Message) error {
	n := int64(len(msg.Payload))
	start := time.Now()
	err := e.Endpoint.Send(msg)
	d := time.Since(start)
	e.net.msgs.Add(1)
	if msg.Kind == transport.KindData {
		e.net.dataBytes.Add(n)
	} else {
		e.net.ctlBytes.Add(n)
	}
	e.mu.Lock()
	e.sendNs = append(e.sendNs, int64(d))
	e.mu.Unlock()
	return err
}
