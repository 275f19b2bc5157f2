#!/usr/bin/env python3
"""Record every workload's ibm_ratio for a range of seeds.

Run from the repository root, only when the controller's behaviour is
meant to change:

    python3 perfbench/record_reference.py 0 16 [workload ...]

writes the ratios for seeds 0..15 into perfbench/reference.json, which
every benchmark run compares its own ratio with.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main(argv) -> int:
    run.ensure_source()
    import loop
    from orbitmpc import fgm, sim
    from workloads import WORKLOADS

    first, count = int(argv[0]), int(argv[1])
    names = argv[2:] or list(WORKLOADS)
    path = run.BENCH_DIR / "reference.json"
    reference = json.loads(path.read_text())
    work_dir = run.OUT_DIR / "record"
    try:
        for name in names:
            w = WORKLOADS[name]
            plant, _, ctrl = loop.set_up(w, str(work_dir))
            for seed in range(first, first + count):
                dist = loop.make_disturbance(w, seed)
                p = loop.run_pass(plant, loop.TimedController(ctrl, plant.n_u), dist, w.T)
                if p.failed:
                    raise RuntimeError(f"{name} seed {seed}: {len(p.failed)} failed samples")
                ratio = loop.ibm_ratio(w, p.trace, sim.simulate(plant, None, dist, w.T))
                reference.setdefault(name, {})[str(seed)] = ratio
                print(name, seed, ratio, flush=True)
            path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        fgm.shutdown_pools()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
