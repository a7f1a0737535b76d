package main

import (
	"time"

	"lodify/internal/annotate"
	"lodify/internal/ctxmgr"
	"lodify/internal/lod"
	"lodify/internal/obs"
	"lodify/internal/resolver"
	"lodify/internal/social"
	"lodify/internal/store"
	"lodify/internal/ugc"
	"lodify/internal/workload"
)

// replica is an in-process platform built exactly as cmd/lodify builds
// its own from the same flags: the oracles read expected answers from
// it and the traced run replays requests against it.
type replica struct {
	world    *lod.World
	platform *ugc.Platform
	st       *store.Store
}

// buildReplica mirrors cmd/lodify's start-up with its shipping
// defaults (-shards 0, -slow-query 500ms) and the benchmark's
// -contents/-users/-seed.
func buildReplica(seed int64) (*replica, error) {
	store.SetDefaultShards(0)
	obs.SlowQueries.SetThreshold(500 * time.Millisecond)
	world := lod.Generate(lod.DefaultConfig())
	ctx := ctxmgr.New(world)
	broker := resolver.DefaultBroker(world.Store)
	pipe := annotate.NewPipeline(world.Store, broker, annotate.DefaultConfig())
	p := ugc.New(world.Store, ctx, pipe, ugc.Options{})
	for _, n := range social.DefaultNetworks() {
		p.AddCrossPoster(n)
	}
	spec := workload.Spec{
		Users: corpusUsers, Contents: corpusContents, FriendsPerUser: 4,
		RatedFraction: 0.7, Seed: seed,
	}
	if _, err := workload.Generate(p, world, spec); err != nil {
		return nil, err
	}
	return &replica{world: world, platform: p, st: p.Store}, nil
}
