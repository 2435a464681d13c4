// Package simnet is the network-fault vocabulary the runtime's application
// bus and the chaos action library share: link filters (Filter, Fate, Link,
// FilterSet and the four built-in filters) and the message-latency models
// the thesis's measurements are phrased in (LatencyModel, Exponential,
// Timesliced). It holds no scheduler and no network of its own — time
// belongs to internal/clock, messages to internal/core.
package simnet

import (
	"cmp"
	"math/rand"
	"slices"

	"repro/internal/vclock"
)

// This file is the link-interposition layer: per-link traffic filters
// consulted at send time. It is the hook point for the chaos action
// library (internal/chaos) — message loss, extra delay, duplication, and
// payload corruption become removable per-link rules instead of
// application-callback side effects. The core runtime's application bus
// (internal/core, netem.go) is the consumer.

// Fate is a filter's verdict on one message crossing a link.
type Fate struct {
	// Drop discards the message (counted as dropped).
	Drop bool
	// Delay is added to the link's sampled latency.
	Delay vclock.Ticks
	// Copies is how many extra copies to deliver, each with its own
	// latency sample.
	Copies int
	// Payload, when non-nil, replaces the message payload (corruption).
	Payload interface{}
}

// Merge folds another filter's verdict into f: any Drop wins, delays and
// copies add, the last payload replacement sticks.
func (f *Fate) Merge(g Fate) {
	f.Drop = f.Drop || g.Drop
	f.Delay += g.Delay
	f.Copies += g.Copies
	if g.Payload != nil {
		f.Payload = g.Payload
	}
}

// Filter inspects a message at send time and decides its fate. Filters on a
// link run in installation order, verdicts accumulating (any Drop wins;
// delays and copies add; the last payload replacement sticks). All
// randomness must come from the supplied rng so runs stay deterministic
// under a seed.
type Filter interface {
	Filter(from, to string, payload interface{}, rng *rand.Rand) Fate
}

// Wildcard matches any host in a link addressed to filters.
const Wildcard = "*"

// Link is a directed host pair; either side may be Wildcard.
type Link struct {
	From, To string
}

// MatchOrder returns the link keys consulted for a concrete (from, to)
// pair, most-specific first — the shared lookup rule of the interposition
// layer.
func MatchOrder(from, to string) [4]Link {
	return [4]Link{
		{From: from, To: to},
		{From: from, To: Wildcard},
		{From: Wildcard, To: to},
		{From: Wildcard, To: Wildcard},
	}
}

type installedFilter struct {
	id  string
	seq uint64
	f   Filter
}

// FilterSet is the filter-chain machinery of the interposition layer:
// install/replace by (link, id), removal, global installation ordering
// across wildcard keys, and a merged-chain cache per host pair. It is not
// safe for concurrent use; the runtime's application bus holds its own
// lock around it. The zero value is ready to use.
//
// A set outlives its filters: the chaos actions install and remove filters
// every experiment, so a link's chain and a pair's merged chain keep their
// arrays when they empty or go stale, and are refilled in place.
type FilterSet struct {
	filters map[Link][]installedFilter // a link's chain, possibly empty
	n       int                        // filters installed, over every link
	seq     uint64                     // installation order, global across links
	rev     uint64                     // bumped on any change; invalidates the chain cache

	cache map[[2]string]cachedChain
}

// cachedChain is a pair's merged chain as of the set's revision rev.
type cachedChain struct {
	rev   uint64
	chain []installedFilter
}

// Empty reports whether no filters are installed.
func (s *FilterSet) Empty() bool { return s.n == 0 }

// Install interposes f on the directed link, under an id for later
// removal. Installing under an existing (link, id) replaces that filter in
// place, keeping its position in the chain.
func (s *FilterSet) Install(link Link, id string, f Filter) {
	s.rev++
	for i, in := range s.filters[link] {
		if in.id == id {
			s.filters[link][i].f = f
			return
		}
	}
	if s.filters == nil {
		s.filters = make(map[Link][]installedFilter)
	}
	s.seq++
	s.n++
	s.filters[link] = append(s.filters[link], installedFilter{id: id, seq: s.seq, f: f})
}

// Remove removes the filter installed under (link, id), reporting whether
// one was present.
func (s *FilterSet) Remove(link Link, id string) bool {
	chain := s.filters[link]
	for i, in := range chain {
		if in.id == id {
			s.rev++
			s.n--
			last := len(chain) - 1
			copy(chain[i:], chain[i+1:])
			chain[last] = installedFilter{} // let go of the filter
			s.filters[link] = chain[:last]
			return true
		}
	}
	return false
}

// Clear removes every installed filter, keeping each link's array.
func (s *FilterSet) Clear() {
	for link, chain := range s.filters {
		clear(chain)
		s.filters[link] = chain[:0]
	}
	s.n = 0
	s.rev++
}

// Consult folds all filters matching (from, to) over one message. The
// merged, sorted chain per host pair is cached until the installed set
// changes, so steady-state consults do no sorting or allocation.
func (s *FilterSet) Consult(from, to string, payload interface{}, rng *rand.Rand) Fate {
	var fate Fate
	if s.Empty() {
		return fate
	}
	for _, in := range s.mergedChain(from, to) {
		fate.Merge(in.f.Filter(from, to, payload, rng))
	}
	return fate
}

// mergedChain returns the filters matching (from, to) in global
// installation order — so behaviour does not depend on which key a filter
// was installed under — caching per pair until the filter set changes. A
// stale pair's chain is rebuilt in its own array.
func (s *FilterSet) mergedChain(from, to string) []installedFilter {
	pair := [2]string{from, to}
	c, ok := s.cache[pair]
	if ok && c.rev == s.rev {
		return c.chain
	}
	chain := c.chain[:0]
	for _, key := range MatchOrder(from, to) {
		chain = append(chain, s.filters[key]...)
	}
	slices.SortFunc(chain, func(a, b installedFilter) int { return cmp.Compare(a.seq, b.seq) })
	if s.cache == nil {
		s.cache = make(map[[2]string]cachedChain)
	}
	s.cache[pair] = cachedChain{rev: s.rev, chain: chain}
	return chain
}

// Built-in filters — the primitives the chaos network actions install.

// DropFilter drops messages with probability P.
type DropFilter struct{ P float64 }

// Filter implements Filter.
func (d DropFilter) Filter(_, _ string, _ interface{}, rng *rand.Rand) Fate {
	return Fate{Drop: d.P > 0 && rng.Float64() < d.P}
}

// DelayFilter adds extra delay to every message: Extra plus a uniform
// sample from [0, Jitter).
type DelayFilter struct {
	Extra  vclock.Ticks
	Jitter vclock.Ticks
}

// Filter implements Filter.
func (d DelayFilter) Filter(_, _ string, _ interface{}, rng *rand.Rand) Fate {
	delay := d.Extra
	if d.Jitter > 0 {
		delay += vclock.Ticks(rng.Int63n(int64(d.Jitter)))
	}
	if delay < 0 {
		delay = 0
	}
	return Fate{Delay: delay}
}

// DuplicateFilter delivers Copies extra copies with probability P.
type DuplicateFilter struct {
	P      float64
	Copies int
}

// Filter implements Filter.
func (d DuplicateFilter) Filter(_, _ string, _ interface{}, rng *rand.Rand) Fate {
	if d.P > 0 && rng.Float64() < d.P {
		copies := d.Copies
		if copies <= 0 {
			copies = 1
		}
		return Fate{Copies: copies}
	}
	return Fate{}
}

// CorruptFilter rewrites payloads with probability P using Corrupt. A nil
// Corrupt wraps the payload in Corrupted — a tamper-evident envelope the
// application under study must cope with.
type CorruptFilter struct {
	P       float64
	Corrupt func(payload interface{}, rng *rand.Rand) interface{}
}

// Corrupted is the default corruption envelope: the original payload,
// marked damaged.
type Corrupted struct{ Original interface{} }

// Filter implements Filter.
func (c CorruptFilter) Filter(_, _ string, payload interface{}, rng *rand.Rand) Fate {
	if c.P <= 0 || rng.Float64() >= c.P {
		return Fate{}
	}
	if c.Corrupt != nil {
		return Fate{Payload: c.Corrupt(payload, rng)}
	}
	return Fate{Payload: Corrupted{Original: payload}}
}
