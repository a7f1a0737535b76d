package main

import (
	"math/rand"
	"slices"
	"sync"
	"time"
)

// The benchmark runs on a few cores of a shared host. Its neighbours
// change how fast those cores run by a quarter or more within minutes,
// and from one second to the next, mostly without any time being
// stolen from the benchmark, so a wall-clock figure of one run says as
// much about the neighbours as about the program. Every run therefore
// also times a fixed reference workload right before and right after
// each window of measured work (and each set-up), and reports its
// end-to-end figures at the reference speed: a window's latencies are
// scaled by refSampleMs ÷ the mean of its two reference samples, its
// rate by the inverse, before the run's figures are taken. A
// program change moves the scaled figures as it moves the raw ones; a
// slower or faster spell of the machine slows or speeds the program and
// the reference workload together and cancels out. The unscaled
// figures and every reference sample are kept in the result's detail
// file.
//
// The reference workload is stdlib-only code of the benchmark's own,
// so no change to the program can speed it up or slow it down. It
// allocates nothing while it runs, so the benchmark's own heap
// (replica, answer bodies) does not change its time through the
// garbage collector. It mixes the kinds of work the server does: map
// inserts and lookups, pointer chasing over a table larger than the L2
// cache, and sorting.

// refSampleMs is one reference sample's time on the reference speed:
// the median sample on a quiet 2-vCPU Intel Xeon 2.1 GHz guest.
const refSampleMs = 20.0

// refState is one goroutine's preallocated working set.
type refState struct {
	m     map[uint64]uint32
	next  []uint32 // a random cycle over its indices
	keys  []uint64
	order []uint64
}

const (
	refMapKeys = 1 << 13
	refChase   = 1 << 19 // 2 MiB of uint32
	refRounds  = 6
)

func newRefState(seed int64) *refState {
	rng := rand.New(rand.NewSource(seed))
	s := &refState{
		m:     make(map[uint64]uint32, refMapKeys),
		next:  make([]uint32, refChase),
		keys:  make([]uint64, refMapKeys),
		order: make([]uint64, refMapKeys),
	}
	perm := rng.Perm(refChase)
	for i := range perm {
		s.next[perm[i]] = uint32(perm[(i+1)%refChase])
	}
	for i := range s.keys {
		s.keys[i] = rng.Uint64()
	}
	return s
}

// work runs one fixed amount of reference work and returns a value
// that depends on all of it.
func (s *refState) work() uint64 {
	var acc uint64
	for round := 0; round < refRounds; round++ {
		clear(s.m)
		for i, k := range s.keys {
			s.m[k^uint64(round)] = uint32(i)
		}
		for _, k := range s.keys {
			acc += uint64(s.m[k^uint64(round)])
		}
		p := uint32(round)
		for i := 0; i < refChase/8; i++ {
			p = s.next[p]
		}
		acc += uint64(p)
		copy(s.order, s.keys)
		for i := range s.order {
			s.order[i] ^= acc
		}
		slices.Sort(s.order)
		acc += s.order[len(s.order)/2]
	}
	return acc
}

// machine collects a run's reference samples.
type machine struct {
	states  []*refState
	samples []float64 // ms
	sink    uint64
}

func newMachine() *machine {
	m := &machine{}
	for i := 0; i < clients; i++ {
		m.states = append(m.states, newRefState(int64(i)+1))
	}
	m.states[0].work() // fault the pages in
	return m
}

// sample records and returns one reference sample: the faster of two timings of
// the reference work run on `clients` goroutines at once — the load
// the live workloads put on the machine — each timed until both
// goroutines are done. Keeping the faster timing drops a sample that
// collided with the tail of the server's own work.
func (m *machine) sample() float64 {
	best := 0.0
	for try := 0; try < 2; try++ {
		var wg sync.WaitGroup
		out := make([]uint64, len(m.states))
		t0 := time.Now()
		for i, s := range m.states {
			wg.Add(1)
			go func(i int, s *refState) {
				defer wg.Done()
				out[i] = s.work()
			}(i, s)
		}
		wg.Wait()
		if d := ms(time.Since(t0)); try == 0 || d < best {
			best = d
		}
		for _, v := range out {
			m.sink += v
		}
	}
	m.samples = append(m.samples, best)
	return best
}

// timeFactor takes a time measured between two reference samples to
// the reference speed: refSampleMs ÷ the mean of the two. It is 1 when
// the samples are missing.
func timeFactor(refs [2]float64) float64 {
	if refs[0] <= 0 || refs[1] <= 0 {
		return 1
	}
	return refSampleMs / ((refs[0] + refs[1]) / 2)
}
