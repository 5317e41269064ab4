package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"selectps/internal/metrics"
	"selectps/internal/node"
	"selectps/internal/obs"
	"selectps/internal/pubsub"
	"selectps/internal/transport"
)

// cluster is one started workload cluster, built through the public
// node.Start API, plus what the benchmark reads from outside.
type cluster struct {
	in     *inputs
	nodes  *node.Cluster
	met    *obs.Metrics
	tcp    *transport.TCP // nil on the switchboard
	sink   *sink
	tracer *tracer

	// Set-up breakdown, one value per layer.
	generateMS, buildMS, startMS float64
	subscribeRTTms               []float64
}

// startCluster generates the inputs and brings the workload's cluster to
// ready: graph, SELECT overlay, transport, node.Start, topic subscribes
// acked. It runs the production configuration.
func startCluster(w workload, seed int64, tm timing, traced bool, dir string) (*cluster, error) {
	in, genTime := makeInputs(w, seed, tm, traced)
	c := &cluster{in: in, met: obs.New(), generateMS: ms(genTime)}

	tb := time.Now()
	ov, err := pubsub.Build(pubsub.Select, in.g, pubsub.BuildOptions{}, rand.New(rand.NewSource(clusterSeed)))
	if err != nil {
		return nil, err
	}
	c.buildMS = ms(time.Since(tb))

	ts := time.Now()
	var tr transport.Transport
	if w.tcp {
		t, err := transport.NewTCP(w.n, mailbox)
		if err != nil {
			return nil, err
		}
		t.Obs = c.met
		c.tcp, tr = t, t
	} else {
		sw := transport.NewSwitchboard(w.n, mailbox)
		sw.Obs = c.met
		tr = sw
	}
	epoch := time.Now()
	if traced {
		c.tracer = newTracer(epoch)
		tr = wrapTransport(tr, c.tracer)
	}
	opts := node.Options{
		Graph: in.g, Overlay: ov, Transport: tr, Seed: seed, Obs: c.met,
		HeartbeatEvery: w.period, GossipEvery: w.period, MaintainEvery: w.period,
		RetryBase:    retryBase,
		AckBatch:     node.AckBatchAuto,
		ShardMailbox: mailbox,
		Inbox:        true,
		TopicLease:   topicLease,
		// Journals stay inside the run directory, never the system temp
		// directory: the benchmark writes only inside its checkout.
		InboxDir: filepath.Join(dir, "inbox"),
	}
	if err := os.MkdirAll(opts.InboxDir, 0o755); err != nil {
		tr.Close()
		return nil, err
	}
	c.nodes, err = node.Start(opts)
	if err != nil {
		tr.Close()
		return nil, err
	}
	c.sink = newSink(in, epoch, c.tracer)
	for p, nd := range c.nodes.Nodes {
		nd.OnDeliver(c.sink.handler(int32(p)))
	}
	c.startMS = ms(time.Since(ts))

	if w.topics > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if c.tracer != nil {
			// Subscribes are traced too: node.subscribe spans with the
			// registration frames under them.
			c.tracer.on.Store(true)
			defer c.tracer.on.Store(false)
		}
		for p, topics := range in.peerTopics {
			for _, t := range topics {
				s0 := time.Now()
				if _, err := c.nodes.Nodes[p].Topic(in.topicNames[t]).Subscribe(ctx); err != nil {
					c.shutdown()
					return nil, fmt.Errorf("subscribe %d to %s: %w", p, in.topicNames[t], err)
				}
				c.subscribeRTTms = append(c.subscribeRTTms, ms(time.Since(s0)))
				c.tracer.call(spanSubscribe, int32(p), int64(s0.Sub(epoch)), 0)
			}
		}
	}
	return c, nil
}

// shutdown stops the cluster and reports how long that took.
func (c *cluster) shutdown() time.Duration {
	t0 := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = c.nodes.Shutdown(ctx) // a cut-short drain still closes the transport
	return time.Since(t0)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is metrics.Quantile with 0, not NaN, for an empty sample: a
// row that does not apply to a workload reads 0 and still encodes as JSON.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return metrics.Quantile(xs, q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
