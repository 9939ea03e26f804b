#!/usr/bin/env python3
"""XL-scale placement: end-to-end wall, GP inner loop and congestion map.

Runs one XL benchmark (``sb_xl_1``, 100k cells at full scale) end-to-end
through the ``dreamplace`` preset, then times the GP inner loop (plan vs
the kept allocating reference paths, bitwise-compared) and a congestion
map, and prints the walls.

``--kernel-workers`` is the thread count of the density model's
Poisson-solve DCTs.  Each row transform is computed identically, so any
value (including 0, scipy's default) produces the same placement bit for
bit; threads pay only on the large bin grids of XL designs.

Run:  python examples/xl_scale.py [--scale 0.1] [--kernel-workers 2]
      (full scale needs a few GB of RAM and a few minutes)
"""

import argparse
import time

import numpy as np

from repro.benchgen.suite import load_benchmark
from repro.flow import build_flow
from repro.route.rudy import CongestionEstimator


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--design", default="sb_xl_1")
    parser.add_argument(
        "--scale", type=float, default=0.1,
        help="cell-count multiplier (default 0.1 = 10k cells; 1.0 = full XL)",
    )
    parser.add_argument(
        "--kernel-workers", type=int, default=2,
        help="threads of the density Poisson-solve DCTs (0 = scipy's default)",
    )
    parser.add_argument(
        "--iterations", type=int, default=100,
        help="global-place iterations (keep small for a smoke run)",
    )
    args = parser.parse_args()

    t0 = time.perf_counter()
    design = load_benchmark(args.design, scale=args.scale)
    print(
        f"{args.design} @ scale {args.scale}: {design.num_instances} instances, "
        f"{design.num_nets} nets, {design.num_pins} pins "
        f"(generated in {time.perf_counter() - t0:.1f}s)"
    )

    # End-to-end placement.
    flow = build_flow(
        "dreamplace",
        kernel_workers=args.kernel_workers,
        max_iterations=args.iterations,
    )
    t0 = time.perf_counter()
    result = flow.run(design)
    wall = time.perf_counter() - t0
    print(f"placement ({args.kernel_workers} DCT threads): {wall:.1f}s")
    for key, value in result.summary().items():
        print(f"  {key}: {value}")

    x, y = design.positions()

    # GP-iteration wall: plan-based gradient vs the kept allocating
    # reference (_reference_*) inner loop: the CSR-order np.add.at
    # wirelength, the four-add.at density splat and the per-net-fallback
    # HPWL pass, each re-run over a short fixed-length placement and
    # bitwise-compared.
    from repro.netlist.core import as_core
    from repro.placement.global_placer import GlobalPlacer, PlacementConfig

    gp_iters = min(args.iterations, 10)

    def gp_run(legacy=False):
        config = PlacementConfig(
            max_iterations=gp_iters,
            min_iterations=gp_iters,
            stop_overflow=0.0,
            seed=0,
            kernel_workers=args.kernel_workers,
        )
        placer = GlobalPlacer(design, config)
        if legacy:
            placer.wirelength.evaluate = placer.wirelength._reference_evaluate
            placer.density._splat = placer.density._reference_splat
            core = as_core(design)
            core.hpwl_per_net = core._reference_hpwl_per_net
            try:
                return placer.run()
            finally:
                del core.hpwl_per_net
        return placer.run()

    t0 = time.perf_counter()
    gp_plan = gp_run()
    plan_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    gp_legacy = gp_run(legacy=True)
    legacy_wall = time.perf_counter() - t0
    exact = np.array_equal(gp_plan.x, gp_legacy.x) and np.array_equal(
        gp_plan.y, gp_legacy.y
    )
    print(
        f"GP iteration ({gp_iters} iters): "
        f"{plan_wall / gp_iters * 1e3:.1f}ms plan vs "
        f"{legacy_wall / gp_iters * 1e3:.1f}ms legacy; bitwise equal: {exact}"
    )
    if not exact:
        raise SystemExit("plan-based GP inner loop diverged from legacy")

    t0 = time.perf_counter()
    CongestionEstimator(design).estimate(x, y)
    print(f"congestion map: {time.perf_counter() - t0:.2f}s")


if __name__ == "__main__":
    main()
