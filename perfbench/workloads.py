"""The benchmark's workloads: one plant, one design and one disturbance each.

Every workload runs the same closed loop (design bundle -> MpcController
-> sim.simulate) and differs in the property that decides which layer
dominates a control sample: the size of the gradient matvec, whether
the horizon-2 hexagon projection is used, and how long the offline
Kalman Riccati iteration takes.  The worker pool is measured only by the traced run's probes: a closed-loop
workload with two workers spread too widely on a shared 2-vCPU virtual machine
(IQR/median over 10-22 s windows: 0.21 for the median step time, 0.39
to 0.50 for the 90th percentile) to hold any bound.

The response matrix is drawn from a fixed per-workload plant seed: a
storage ring has one response matrix, and with a seed-dependent plant
the integrated-motion ratio of the 8x8 workload spread by ~15% across
seeds, wider than any usable bound.  The run seed draws the disturbance
realization (the noise floor under the tones).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    n_y: int
    n_u: int
    horizon: int
    mu: int
    dt: float
    bandwidth_hz: float
    weights: str
    sigma_v: float
    # closed-loop run: T samples per pass, tones as (freq_hz, amplitude,
    # spatial_mode) on an iid noise floor of dist_sigma; every tone is at
    # least four periods long and below band_edge_hz
    T: int
    tones: tuple
    dist_sigma: float
    band_edge_hz: float
    plant_seed: int = 1
    kappa: float = 1e4
    i_max: int = 20
    sigma_w: float = 1e-4
    sigma_m: float = 1e-2
    epsilon: float = 1e-3

    def fingerprint(self) -> str:
        """sha256 of the canonical JSON of every field but the name: all
        that decides the plant, the design and the loop."""
        keys = dataclasses.asdict(self)
        del keys["name"]
        canonical = json.dumps(keys, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


_RING = dict(
    n_y=172, n_u=173, horizon=2, mu=2, dt=1e-4, bandwidth_hz=700.0,
    weights="saturated", sigma_v=1.0,
    # 1250 samples = 0.125 s: 8 Hz bins put both tones on a bin, and
    # 1200 timed samples leave 12 beyond the 99th percentile.  The low
    # noise floor keeps the ratio within ~1% across disturbance seeds
    T=1250, tones=((40.0, 1.0, 0), (96.0, 0.4, 1)), dist_sigma=0.02, band_edge_hz=200.0,
)
_SMALL_LOOP = dict(
    dt=1e-3, bandwidth_hz=70.0, weights="imc_matched",
    T=2048, tones=((2.0, 1.0, 0), (5.0, 0.4, 1)), dist_sigma=0.1, band_edge_hz=10.0,
)

# Why each workload exists is recorded next to its name in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(name="ring-n2", **_RING),
        Workload(name="small-n1", n_y=4, n_u=4, horizon=1, mu=3, sigma_v=1e-6, **_SMALL_LOOP),
        Workload(name="small-n2", n_y=8, n_u=8, horizon=2, mu=3, sigma_v=1.0, **_SMALL_LOOP),
    )
}
