package netsim

import (
	"fmt"

	"msgroofline/internal/sim"
)

// Fault injection: an opt-in chaos mode for the conformance harness.
// When installed on a Network, every Transfer/TransferPacket may be hit
// by a per-link delay spike or a drop-with-retransmit, both drawn from
// a seeded deterministic stream (single-threaded simulations consume
// draws in event order, so equal seeds reproduce runs bit-for-bit). A
// retransmitted message re-reserves the links on its path after a
// retransmit timeout, which is how later messages legally overtake
// earlier ones — the reordering regime the transport layers must
// tolerate. With no faults installed (the default) the data path is
// untouched and output stays byte-identical to the golden runs.

// Faults configures network fault injection. Install with SetFaults.
type Faults struct {
	// Seed drives the deterministic fault stream.
	Seed uint64
	// DropProb is the per-transmission probability that the message
	// is lost and must be retransmitted after RetransmitDelay.
	DropProb float64
	// MaxRetransmit caps consecutive drops of one message (so every
	// message is eventually delivered); 0 selects the default of 3.
	MaxRetransmit int
	// RetransmitDelay is the timeout before a dropped message is
	// re-sent; 0 selects the default of 1us.
	RetransmitDelay sim.Time
	// SpikeProb is the per-message probability of a latency spike.
	SpikeProb float64
	// MaxSpike bounds the uniform extra delay of a spike.
	MaxSpike sim.Time
}

func (f Faults) validate() error {
	if f.DropProb < 0 || f.DropProb >= 1 {
		return fmt.Errorf("netsim: drop probability %v outside [0, 1)", f.DropProb)
	}
	if f.SpikeProb < 0 || f.SpikeProb > 1 {
		return fmt.Errorf("netsim: spike probability %v outside [0, 1]", f.SpikeProb)
	}
	if f.MaxSpike < 0 || f.RetransmitDelay < 0 {
		return fmt.Errorf("netsim: negative fault delay")
	}
	return nil
}

// faultState is the shared runtime state behind an installed Faults
// configuration.
type faultState struct {
	cfg  Faults
	rng  uint64
	maxR int
	rto  sim.Time
}

// SetFaults installs (or, with nil, removes) fault injection on the
// network. Cached Paths pick the change up immediately — fault state
// lives on the Network, not on the Path.
func (n *Network) SetFaults(f *Faults) {
	if f == nil {
		n.faults = nil
		return
	}
	if err := f.validate(); err != nil {
		panic(err.Error())
	}
	fs := &faultState{cfg: *f, rng: f.Seed, maxR: f.MaxRetransmit, rto: f.RetransmitDelay}
	if fs.maxR <= 0 {
		fs.maxR = 3
	}
	if fs.rto <= 0 {
		fs.rto = sim.Microsecond
	}
	n.faults = fs
}

// next is splitmix64 (same generator as sim's perturbation stream, but
// an independent state so engine and network draws never interleave).
func (fs *faultState) next() uint64 {
	fs.rng += 0x9e3779b97f4a7c15
	z := fs.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// roll draws a uniform float64 in [0, 1).
func (fs *faultState) roll() float64 {
	return float64(fs.next()>>11) / (1 << 53)
}

// spike returns the extra delay of one latency spike.
func (fs *faultState) spike() sim.Time {
	if fs.cfg.MaxSpike <= 0 {
		return 0
	}
	return sim.Time(fs.next() % uint64(fs.cfg.MaxSpike+1))
}

// apply perturbs one delivery: an optional latency spike, then up to
// maxR drop-and-retransmit rounds, each re-reserving the path's links
// (resend re-serializes the payload) after the retransmit timeout.
// It returns the final delivery time.
func (fs *faultState) apply(t sim.Time, resend func(at sim.Time) sim.Time) sim.Time {
	if fs.cfg.SpikeProb > 0 && fs.roll() < fs.cfg.SpikeProb {
		t += fs.spike()
	}
	for r := 0; fs.cfg.DropProb > 0 && r < fs.maxR && fs.roll() < fs.cfg.DropProb; r++ {
		t = resend(t + fs.rto)
	}
	return t
}
