// Package wan models the backhaul network between federated in-situ
// sites — the slow, lossy, partition-prone links the paper's deployments
// actually ride (§2.1's T1/cellular/satellite classes, not a data-center
// fabric). It is the cross-site twin of internal/faults: a deterministic,
// seeded fault layer driven entirely by the simulation clock, so a chaos
// campaign reproduces every drop and partition bit-for-bit from its seed.
//
// The model is one uplink per site. A site whose uplink is inside a
// scheduled outage window is partitioned from everything — the
// coordinator cannot sample it, no chunk addressed to or from it moves,
// and its heartbeats go unanswered — while the site itself keeps running:
// it is a complete InSURE plant and needs nothing from the WAN to operate
// solo. A transfer between two sites sees the worse of its endpoints'
// links.
//
// Determinism contract (shared with internal/chaos — see that package's
// "Seeding contract" section):
//
//   - All *scheduled* randomness (the outage windows) is drawn up front
//     by PlanOutages from rand.New(rand.NewSource(seed)), with a fixed
//     number of draws per window so the stream layout never depends on
//     earlier outcomes.
//   - All *per-event* randomness (whether one chunk attempt is delivered,
//     dropped, or corrupted) is a pure stateless hash of
//     (seed, from, to, transfer, chunk, attempt). No generator state
//     exists at query time, so a coordinator killed mid-transfer and
//     resumed from its journal re-derives exactly the fates the dead one
//     saw — the property the fleet daemon's bit-identical resume rests on.
package wan

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Fate is the outcome of one chunk transmission attempt.
type Fate uint8

const (
	// Delivered: the chunk arrived and its CRC verified.
	Delivered Fate = iota
	// Dropped: the chunk vanished in transit (congestion loss, radio
	// fade); the sender times out and retries.
	Dropped
	// Corrupted: the chunk arrived but failed the receiver's CRC frame
	// check (the journal layer's framing); it is discarded and retried
	// like a drop, but counted separately — bit errors are a different
	// pathology than loss.
	Corrupted
)

func (f Fate) String() string {
	switch f {
	case Delivered:
		return "delivered"
	case Dropped:
		return "dropped"
	case Corrupted:
		return "corrupted"
	default:
		return fmt.Sprintf("Fate(%d)", int(f))
	}
}

// Outage is one scheduled uplink partition: site's backhaul is dead for
// [From, To) on Day.
type Outage struct {
	Site int
	Day  int
	From time.Duration
	To   time.Duration
}

// Covers reports whether the outage is active at (day, tod).
func (o Outage) Covers(site, day int, tod time.Duration) bool {
	return o.Site == site && o.Day == day && tod >= o.From && tod < o.To
}

func (o Outage) String() string {
	return fmt.Sprintf("site %d day %d %v-%v", o.Site, o.Day, o.From, o.To)
}

// nominalMbps is every uplink's bandwidth outside a partition: the
// migration tariff's 100 Mbps backhaul (cost.DefaultMigrationTariff).
const nominalMbps = 100

// Config shapes a Network.
type Config struct {
	// Seed drives every random choice: scheduled windows through the
	// up-front planner, per-chunk fates through the stateless hash.
	Seed int64
	// Sites is the fleet size (uplink count).
	Sites int
	// DropRate is the per-chunk-attempt probability of silent loss.
	DropRate float64
	// CorruptRate is the per-chunk-attempt probability of a CRC-failed
	// frame.
	CorruptRate float64
	// Outages are the scheduled uplink partitions, typically built by
	// PlanOutages, though campaigns may pin windows explicitly.
	Outages []Outage
}

// Network is the fault-injectable WAN between sites. All methods are
// read-only and safe for concurrent use; the model holds no mutable
// state, which is what makes it resumable.
type Network struct {
	cfg Config
}

// New validates cfg and builds the network.
func New(cfg Config) (*Network, error) {
	if cfg.Sites < 1 {
		return nil, fmt.Errorf("wan: network needs at least one site")
	}
	// Written as negations so a NaN rate fails them too.
	if d := cfg.DropRate; !(d >= 0 && d < 1) {
		return nil, fmt.Errorf("wan: drop rate %v outside [0,1)", d)
	}
	if d, c := cfg.DropRate, cfg.CorruptRate; !(c >= 0 && d+c < 1) {
		return nil, fmt.Errorf("wan: drop %v + corrupt %v must stay below 1", d, c)
	}
	for _, o := range cfg.Outages {
		if o.Site < 0 || o.Site >= cfg.Sites {
			return nil, fmt.Errorf("wan: window %v names a site outside the %d-site fleet", o, cfg.Sites)
		}
		if o.To <= o.From {
			return nil, fmt.Errorf("wan: window %v is empty or inverted", o)
		}
	}
	return &Network{cfg: cfg}, nil
}

// Sites returns the uplink count.
func (n *Network) Sites() int { return n.cfg.Sites }

// Partitioned reports whether site's uplink is inside an outage window at
// (day, tod).
func (n *Network) Partitioned(site, day int, tod time.Duration) bool {
	for _, o := range n.cfg.Outages {
		if o.Covers(site, day, tod) {
			return true
		}
	}
	return false
}

// Reachable reports whether sites a and b can exchange traffic at
// (day, tod): both uplinks must be outside their outage windows.
func (n *Network) Reachable(a, b, day int, tod time.Duration) bool {
	return !n.Partitioned(a, day, tod) && !n.Partitioned(b, day, tod)
}

// EffectiveMbps is the usable bandwidth between a and b at (day, tod):
// zero across a partition, nominal otherwise.
func (n *Network) EffectiveMbps(a, b, day int, tod time.Duration) float64 {
	if !n.Reachable(a, b, day, tod) {
		return 0
	}
	return nominalMbps
}

// ChunkFate decides the outcome of one chunk attempt on the a→b link.
// It is a pure function of the seed and its arguments — no state, no
// ordering dependence — so replaying a transfer after a crash re-derives
// the same fate sequence the first incarnation saw.
func (n *Network) ChunkFate(a, b int, xfer uint64, chunk, attempt int) Fate {
	if n.cfg.DropRate <= 0 && n.cfg.CorruptRate <= 0 {
		return Delivered
	}
	h := mix64(uint64(n.cfg.Seed))
	h = mix64(h ^ uint64(a)<<32 ^ uint64(b))
	h = mix64(h ^ xfer)
	h = mix64(h ^ uint64(chunk)<<20 ^ uint64(attempt))
	// 53-bit mantissa → uniform in [0,1).
	u := float64(h>>11) / (1 << 53)
	switch {
	case u < n.cfg.DropRate:
		return Dropped
	case u < n.cfg.DropRate+n.cfg.CorruptRate:
		return Corrupted
	default:
		return Delivered
	}
}

// mix64 is the SplitMix64 finalizer — a cheap, well-distributed 64-bit
// mixer, the same construction the stdlib uses to seed PRNG streams.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// PlanOutages draws perDay outage windows per day across the fleet from
// a PRNG seeded with seed, each lasting between minDur and maxDur, placed
// inside [from, to). Every window consumes exactly three draws (site,
// start, duration) whatever its values, so the stream layout is fixed —
// the same convention internal/chaos.Plan uses for its event schedule.
// Windows are sorted (day, site, from) so the plan is order-independent
// of map iteration or caller assembly.
func PlanOutages(seed int64, days, sites, perDay int, from, to, minDur, maxDur time.Duration) []Outage {
	rnd := rand.New(rand.NewSource(seed))
	span := to - from
	if maxDur < minDur {
		maxDur = minDur
	}
	var out []Outage
	for day := 0; day < days; day++ {
		for k := 0; k < perDay; k++ {
			site := rnd.Intn(sites)
			start := from + time.Duration(rnd.Int63n(int64(span)))
			dur := minDur
			if maxDur > minDur {
				dur += time.Duration(rnd.Int63n(int64(maxDur - minDur)))
			}
			end := start + dur
			if end > to {
				end = to
			}
			if end <= start {
				continue
			}
			out = append(out, Outage{Site: site, Day: day, From: start, To: end})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Day != b.Day {
			return a.Day < b.Day
		}
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		return a.From < b.From
	})
	return out
}
