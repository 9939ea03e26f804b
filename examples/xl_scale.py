#!/usr/bin/env python3
"""XL-scale placement with the shared-memory kernel pool.

Runs one XL benchmark (``sb_xl_1``, 100k cells at full scale) end-to-end
through the ``dreamplace`` preset with ``--kernel-workers`` sharding the
density splat and the WA-wirelength gradient across pool workers, then
times the GP inner loop (plan vs legacy vs pooled) and a congestion map —
the other pooled hot path — and prints the walls.

The kernel pool's contract is *bit-exactness*: any ``--kernel-workers``
value (including 0, the serial default) produces the same placement, the
same congestion map, and the same timing report.  This script demonstrates
that by re-running the GP loop and the congestion pass serially and
comparing.

Worker-count guidance: sharding pays on multi-core hosts once designs pass
~50k cells; on small designs or single-core hosts the process round trips
cost more than the numpy kernels save.  Start with the machine's physical
core count and drop to 0 (serial) below ~10k cells.

Run:  python examples/xl_scale.py [--scale 0.1] [--kernel-workers 2]
      (full scale needs a few GB of RAM and a few minutes)
"""

import argparse
import time

import numpy as np

from repro.benchgen.suite import load_benchmark
from repro.flow import build_flow
from repro.route.rudy import CongestionConfig, CongestionEstimator


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--design", default="sb_xl_1")
    parser.add_argument(
        "--scale", type=float, default=0.1,
        help="cell-count multiplier (default 0.1 = 10k cells; 1.0 = full XL)",
    )
    parser.add_argument(
        "--kernel-workers", type=int, default=2,
        help="kernel-pool workers for GP/congestion/legalization (0 = serial)",
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

    # End-to-end placement with the pooled density splat.
    flow = build_flow(
        "dreamplace",
        kernel_workers=args.kernel_workers,
        max_iterations=args.iterations,
    )
    t0 = time.perf_counter()
    result = flow.run(design)
    wall = time.perf_counter() - t0
    print(f"placement ({args.kernel_workers} workers): {wall:.1f}s")
    for key, value in result.summary().items():
        print(f"  {key}: {value}")

    x, y = design.positions()

    # GP-iteration wall: plan-based serial gradient vs the kept legacy
    # (_reference_*) inner loop vs the pooled wa_wirelength kernel, each
    # re-run over a short fixed-length placement and bitwise-compared.
    from repro.netlist.core import as_core
    from repro.placement.global_placer import GlobalPlacer, PlacementConfig

    gp_iters = min(args.iterations, 10)

    def gp_run(workers=0, legacy=False):
        config = PlacementConfig(
            max_iterations=gp_iters,
            min_iterations=gp_iters,
            stop_overflow=0.0,
            seed=0,
            kernel_workers=workers,
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
    if args.kernel_workers > 0:
        t0 = time.perf_counter()
        gp_pooled = gp_run(workers=args.kernel_workers)
        pooled_wall = time.perf_counter() - t0
        exact = np.array_equal(gp_plan.x, gp_pooled.x) and np.array_equal(
            gp_plan.y, gp_pooled.y
        )
        print(
            f"GP iteration ({args.kernel_workers} workers): "
            f"{pooled_wall / gp_iters * 1e3:.1f}ms; bitwise equal: {exact}"
        )
        if not exact:
            raise SystemExit("kernel-pool GP inner loop diverged from serial")

    # Congestion map: pooled vs serial, bitwise.
    t0 = time.perf_counter()
    pooled = CongestionEstimator(
        design, CongestionConfig(workers=args.kernel_workers)
    ).estimate(x, y)
    pooled_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    serial = CongestionEstimator(design).estimate(x, y)
    serial_wall = time.perf_counter() - t0
    exact = np.array_equal(pooled.demand_h, serial.demand_h) and np.array_equal(
        pooled.demand_v, serial.demand_v
    )
    print(
        f"congestion map: {pooled_wall:.2f}s pooled vs {serial_wall:.2f}s serial; "
        f"bitwise equal: {exact}"
    )
    if not exact:
        raise SystemExit("kernel-pool congestion map diverged from serial")


if __name__ == "__main__":
    main()
