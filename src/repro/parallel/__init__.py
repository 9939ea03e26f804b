"""Inert stand-ins for the removed shared-memory kernel pool.

``benchmarks/flow`` still imports these two names; this module exists only
until a benchmark change drops those imports, and then it goes too.
"""

__all__ = ["KernelPool", "shutdown_kernel_pools"]


def shutdown_kernel_pools() -> None:
    """No-op: there are no pools to shut down."""


class KernelPool:
    """Never constructed; ``run`` is kept as a span target for the benchmark."""

    def run(self, *args, **kwargs):
        raise RuntimeError("the kernel pool was removed")
