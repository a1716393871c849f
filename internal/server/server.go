// Package server models the in-situ compute cluster of the InSURE
// prototype: four HP ProLiant rack servers (dual Xeon 3.2 GHz, 16 GB RAM),
// each hosting two Xen virtual machines (§4, §5).
//
// The load-side control knobs the paper uses are all here:
//
//   - server power states with the measured ~15 minute disruption per
//     on/off power cycle (VM checkpoint + restore, §2.3);
//   - DVFS duty cycles for batch jobs (§3.4);
//   - VM-count adjustment for stream jobs (§3.4);
//   - heterogeneous node profiles (legacy Xeon vs low-power Core i7,
//     Table 7).
package server

import (
	"fmt"
	"time"

	"insure/internal/units"
)

// Profile is a server model's power/performance envelope.
type Profile struct {
	Name string
	// IdlePower and PeakPower bound the node's draw (280 W / 450 W for the
	// prototype's ProLiant nodes).
	IdlePower units.Watt
	PeakPower units.Watt
	// VMSlots is how many VMs the node hosts (2 on the prototype).
	VMSlots int
	// Speed is the node's relative per-VM compute rate (Xeon ≡ 1).
	Speed float64
	// CheckpointTime is the node-level save cost on shutdown (sync disks,
	// power sequencing); RestoreTime the node-level boot cost. Each active
	// VM adds CheckpointPerVM / RestorePerVM for its state image. At full
	// occupancy the totals are the paper's ~15 min per on/off cycle.
	CheckpointTime  time.Duration
	RestoreTime     time.Duration
	CheckpointPerVM time.Duration
	RestorePerVM    time.Duration
}

// CheckpointFor is the total shutdown cost with vms active.
func (p Profile) CheckpointFor(vms int) time.Duration {
	return p.CheckpointTime + time.Duration(vms)*p.CheckpointPerVM
}

// RestoreFor is the total startup cost with vms to restore.
func (p Profile) RestoreFor(vms int) time.Duration {
	return p.RestoreTime + time.Duration(vms)*p.RestorePerVM
}

// Xeon is the prototype's legacy high-performance node.
func Xeon() Profile {
	return Profile{
		Name:            "Xeon 3.2G",
		IdlePower:       280,
		PeakPower:       450,
		VMSlots:         2,
		Speed:           1,
		CheckpointTime:  3 * time.Minute,
		RestoreTime:     4 * time.Minute,
		CheckpointPerVM: 2 * time.Minute, // 4 GB VM image over the SAS disks
		RestorePerVM:    2 * time.Minute,
	}
}

// CoreI7 is the emerging low-power node of Table 7 (Intel Core i7-2720).
func CoreI7() Profile {
	return Profile{
		Name:            "Core i7",
		IdlePower:       18,
		PeakPower:       48,
		VMSlots:         2,
		Speed:           0.9,
		CheckpointTime:  1 * time.Minute,
		RestoreTime:     1 * time.Minute,
		CheckpointPerVM: 30 * time.Second, // SSD-class storage
		RestorePerVM:    time.Minute,
	}
}

// State is a node's power state.
type State int

const (
	Off State = iota
	Restoring
	On
	Checkpointing
)

func (s State) String() string {
	switch s {
	case Off:
		return "off"
	case Restoring:
		return "restoring"
	case On:
		return "on"
	case Checkpointing:
		return "checkpointing"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Node is one physical machine.
type Node struct {
	prof  Profile
	state State
	timer time.Duration // remaining transition time

	activeVMs int
	duty      float64 // DVFS duty cycle in (0,1]
	util      float64 // workload CPU utilisation per active VM pair

	// savingVMs is how many VM images the in-flight checkpoint covers; the
	// allocator zeroes activeVMs the moment a node leaves service, so the
	// count must be latched when the checkpoint begins.
	savingVMs int

	onOffCycles int
	vmsSaved    int // VM images whose checkpoint completed
	vmsLost     int // VMs destroyed by power loss before their image was safe
	energy      units.WattHour
}

// NewNode returns a powered-off node.
func NewNode(p Profile) *Node {
	return &Node{prof: p, duty: 1, util: 0.5}
}

// Profile returns the node's hardware profile.
func (n *Node) Profile() Profile { return n.prof }

// State returns the node's power state.
func (n *Node) State() State { return n.state }

// OnOffCycles counts completed power cycles (each costs a checkpoint).
func (n *Node) OnOffCycles() int { return n.onOffCycles }

// Energy is the node's lifetime consumption.
func (n *Node) Energy() units.WattHour { return n.energy }

// SetDuty sets the DVFS duty cycle; values are clamped to [0.1, 1].
func (n *Node) SetDuty(d float64) { n.duty = units.Clamp(d, 0.1, 1) }

// Duty returns the current duty cycle.
func (n *Node) Duty() float64 { return n.duty }

// SetUtil sets the per-VM workload CPU utilisation in [0,1].
func (n *Node) SetUtil(u float64) { n.util = units.Clamp(u, 0, 1) }

// SetActiveVMs sets how many of the node's VM slots run work.
func (n *Node) SetActiveVMs(v int) {
	if v < 0 {
		v = 0
	}
	if v > n.prof.VMSlots {
		v = n.prof.VMSlots
	}
	n.activeVMs = v
}

// ActiveVMs returns the number of working VMs.
func (n *Node) ActiveVMs() int { return n.activeVMs }

// PowerOn begins the restore transition if the node is off. The duration
// covers boot plus restoring every allocated VM's state image.
func (n *Node) PowerOn() {
	if n.state == Off {
		n.state = Restoring
		n.timer = n.prof.RestoreFor(n.activeVMs)
	}
}

// PowerOff begins checkpoint + shutdown if the node is running; every
// active VM's state must be saved first.
func (n *Node) PowerOff() {
	if n.state == On || n.state == Restoring {
		n.state = Checkpointing
		n.timer = n.prof.CheckpointFor(n.activeVMs)
		n.savingVMs = n.activeVMs
	}
}

// Crash cuts the node's power instantly — the bus collapsed under it. A
// node caught On loses its VMs' in-memory state; one caught Checkpointing
// loses the images it was still saving. A node caught Restoring loses
// nothing: the checkpoint images it boots from stay intact on disk.
func (n *Node) Crash() {
	switch n.state {
	case On:
		n.vmsLost += n.activeVMs
	case Checkpointing:
		n.vmsLost += n.savingVMs
	}
	if n.state != Off {
		n.state = Off
		n.timer = 0
		n.savingVMs = 0
		n.onOffCycles++
	}
}

// VMsSaved counts VM images whose checkpoint completed over the node's life.
func (n *Node) VMsSaved() int { return n.vmsSaved }

// VMsLost counts VMs destroyed by power loss before their state was safe.
func (n *Node) VMsLost() int { return n.vmsLost }

// Running reports whether the node currently executes work.
func (n *Node) Running() bool { return n.state == On }

// Power is the node's present draw. Transitions draw idle-plus power (disk
// and network busy saving or loading VM images) but make no progress.
func (n *Node) Power() units.Watt {
	span := float64(n.prof.PeakPower - n.prof.IdlePower)
	switch n.state {
	case Off:
		return 0
	case Restoring, Checkpointing:
		return n.prof.IdlePower + units.Watt(0.3*span)
	case On:
		frac := float64(n.activeVMs) / float64(n.prof.VMSlots)
		return n.prof.IdlePower + units.Watt(span*n.util*n.duty*frac)
	}
	return 0
}

// Step advances the node by dt and returns the work done, in full-speed
// VM-hours. Progress accrues only in the On state, scaled by duty cycle and
// the node's relative speed.
func (n *Node) Step(dt time.Duration) float64 {
	n.energy += units.Energy(n.Power(), dt)
	switch n.state {
	case Restoring:
		n.timer -= dt
		if n.timer <= 0 {
			n.state = On
		}
		return 0
	case Checkpointing:
		n.timer -= dt
		if n.timer <= 0 {
			n.state = Off
			n.onOffCycles++
			n.vmsSaved += n.savingVMs
			n.savingVMs = 0
		}
		return 0
	case On:
		if n.activeVMs == 0 {
			return 0
		}
		return float64(n.activeVMs) * n.duty * n.prof.Speed * dt.Hours()
	}
	return 0
}

// Cluster is the rack of nodes plus the VM allocator.
type Cluster struct {
	nodes []*Node

	targetVMs int
	vmOps     int // VM management operations (paper's "VM Ctrl. Times")
	powerOps  int // power-control actions (duty/state changes)
}

// NewCluster builds n nodes of the given profile, all off.
func NewCluster(p Profile, n int) *Cluster {
	c := &Cluster{nodes: make([]*Node, n)}
	for i := range c.nodes {
		c.nodes[i] = NewNode(p)
	}
	return c
}

// Nodes returns the underlying nodes (shared).
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Size returns the node count.
func (c *Cluster) Size() int { return len(c.nodes) }

// TotalVMSlots is the cluster-wide VM capacity.
func (c *Cluster) TotalVMSlots() int {
	total := 0
	for _, n := range c.nodes {
		total += n.prof.VMSlots
	}
	return total
}

// VMOps returns the cumulative VM management operation count.
func (c *Cluster) VMOps() int { return c.vmOps }

// PowerOps returns the cumulative power-control action count.
func (c *Cluster) PowerOps() int { return c.powerOps }

// SetTargetVMs reallocates VMs across nodes, powering nodes up or down as
// needed. Nodes fill to their slot capacity before the next node powers on,
// matching the prototype's allocator.
func (c *Cluster) SetTargetVMs(v int) {
	if v < 0 {
		v = 0
	}
	if max := c.TotalVMSlots(); v > max {
		v = max
	}
	if v == c.targetVMs {
		return
	}
	c.targetVMs = v
	c.vmOps++
	remaining := v
	for _, n := range c.nodes {
		take := n.prof.VMSlots
		if take > remaining {
			take = remaining
		}
		remaining -= take
		if take > 0 {
			n.SetActiveVMs(take)
			if n.state == Off {
				n.PowerOn()
				c.powerOps++
			}
		} else {
			// Checkpoint the VMs the node currently holds before the
			// allocation drops to zero — their state must be saved.
			if n.state == On || n.state == Restoring {
				n.PowerOff()
				c.powerOps++
			}
			n.SetActiveVMs(0)
		}
	}
}

// TargetVMs returns the allocator's current target.
func (c *Cluster) TargetVMs() int { return c.targetVMs }

// RunningVMs counts VMs on nodes that are actually in the On state.
func (c *Cluster) RunningVMs() int {
	total := 0
	for _, n := range c.nodes {
		if n.Running() {
			total += n.ActiveVMs()
		}
	}
	return total
}

// SetDuty applies a DVFS duty cycle across all nodes.
func (c *Cluster) SetDuty(d float64) {
	for _, n := range c.nodes {
		n.SetDuty(d)
	}
	c.powerOps++
}

// SetUtil applies the workload's CPU utilisation to all nodes.
func (c *Cluster) SetUtil(u float64) {
	for _, n := range c.nodes {
		n.SetUtil(u)
	}
}

// Shutdown checkpoints every running node (the TPM low-SoC emergency path).
func (c *Cluster) Shutdown() {
	for _, n := range c.nodes {
		if n.state == On || n.state == Restoring {
			n.PowerOff()
			c.powerOps++
		}
	}
	c.targetVMs = 0
	for _, n := range c.nodes {
		n.SetActiveVMs(0)
	}
}

// Crash cuts power to every node at once — a bus collapse, not a control
// action. VMs whose state was not yet checkpointed are lost.
func (c *Cluster) Crash() {
	for _, n := range c.nodes {
		n.Crash()
	}
	c.targetVMs = 0
	for _, n := range c.nodes {
		n.SetActiveVMs(0)
	}
}

// VMsSaved sums completed VM checkpoints across nodes.
func (c *Cluster) VMsSaved() int {
	total := 0
	for _, n := range c.nodes {
		total += n.VMsSaved()
	}
	return total
}

// VMsLost sums VMs destroyed by power loss across nodes.
func (c *Cluster) VMsLost() int {
	total := 0
	for _, n := range c.nodes {
		total += n.VMsLost()
	}
	return total
}

// Power is the cluster's present total draw.
func (c *Cluster) Power() units.Watt {
	var p units.Watt
	for _, n := range c.nodes {
		p += n.Power()
	}
	return p
}

// Energy is the cluster's lifetime consumption.
func (c *Cluster) Energy() units.WattHour {
	var e units.WattHour
	for _, n := range c.nodes {
		e += n.Energy()
	}
	return e
}

// OnOffCycles sums power cycles across nodes.
func (c *Cluster) OnOffCycles() int {
	total := 0
	for _, n := range c.nodes {
		total += n.OnOffCycles()
	}
	return total
}

// Step advances all nodes and returns total work done in full-speed
// VM-hours.
func (c *Cluster) Step(dt time.Duration) float64 {
	var work float64
	for _, n := range c.nodes {
		work += n.Step(dt)
	}
	return work
}

// AnyRunning reports whether at least one node is serving.
func (c *Cluster) AnyRunning() bool {
	for _, n := range c.nodes {
		if n.Running() {
			return true
		}
	}
	return false
}
