package platform

import (
	"math"
	"math/rand"
	"sync"
)

// NoiseConfig describes the measurement-noise model applied on top of a
// device's noiseless time. Real timings are perturbed mostly upward
// (interference can only add time): each observation is multiplied by
// 1 + Rel×|z| with z standard normal, and with probability OutlierP by an
// additional 1 + OutlierScale×u, u uniform in (0,1) — the occasional OS
// hiccup that forces FuPerMod to repeat measurements until they are
// "statistically correct" (paper §4.1).
type NoiseConfig struct {
	// Rel is the typical relative jitter, e.g. 0.02 for 2%.
	Rel float64
	// OutlierP is the probability of an outlier observation.
	OutlierP float64
	// OutlierScale is the maximum relative magnitude of an outlier.
	OutlierScale float64
}

// DefaultNoise is a realistic default: 2% jitter with 2% chance of up to
// +50% outliers.
var DefaultNoise = RelNoise(0.02)

// RelNoise is the noise a relative level stands for: jitter rel with a 2%
// chance of up to +50% outliers, or Quiet when rel is not positive. It is
// how fupermod-bench's -noise flag, a service request's device noise and
// a store entry's key are read, so the store audit replays exactly what
// the producers of its entries measured.
func RelNoise(rel float64) NoiseConfig {
	if !(rel > 0) {
		return Quiet
	}
	return NoiseConfig{Rel: rel, OutlierP: 0.02, OutlierScale: 0.5}
}

// Quiet disables noise entirely; Meter.Measure returns BaseTime.
var Quiet = NoiseConfig{}

// Meter produces noisy timing observations of a device. It is the virtual
// counterpart of running and timing a kernel on real hardware. A Meter is
// safe for concurrent use.
type Meter struct {
	dev Device
	cfg NoiseConfig

	mu  sync.Mutex
	rng *rand.Rand
}

// NewMeter wraps dev with the given noise model, seeded deterministically.
func NewMeter(dev Device, cfg NoiseConfig, seed int64) *Meter {
	return &Meter{dev: dev, cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// Device returns the underlying device.
func (m *Meter) Device() Device { return m.dev }

// Measure returns one noisy observation of the time to execute d units.
func (m *Meter) Measure(d float64) float64 {
	t := m.dev.BaseTime(d)
	if m.cfg.Rel == 0 && m.cfg.OutlierP == 0 {
		return t
	}
	m.mu.Lock()
	z := math.Abs(m.rng.NormFloat64())
	out := 0.0
	if m.cfg.OutlierP > 0 && m.rng.Float64() < m.cfg.OutlierP {
		out = m.cfg.OutlierScale * m.rng.Float64()
	}
	m.mu.Unlock()
	return t * (1 + m.cfg.Rel*z) * (1 + out)
}
