"""Helpers shared by the test modules: numpy's SIMD dispatch level, which
fixes the bits of its exp, power, tan and arctan loops, the mask that
lowers it with no rebuild, and the text an access trace is pinned by."""

from typing import NamedTuple


def dispatch_level():
    """The highest SIMD target numpy's loops dispatch to in this process:
    the last target ``np.show_runtime()`` lists as found."""
    try:
        from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                                   __cpu_features__)
    except ImportError:     # numpy 1.x
        from numpy.core._multiarray_umath import (__cpu_dispatch__,
                                                  __cpu_features__)
    found = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    return found[-1] if found else None


# masks numpy's AVX-512 loops with no rebuild; np.show_runtime() then
# finds X86_V3 alone
AVX512_MASK = "X86_V4 AVX512_ICL AVX512_SPR"


class AccessStep(NamedTuple):
    """One step of an access trace, as the pinned text spells it."""
    index: int
    side: str
    k: int
    theta_u: float
    sigma_d2: float
    sigma_psi2: float
    symbols: int


def parent_repr(trace, symbol_duration) -> str:
    """The text the access pins hash: every step with its index, side and
    cumulative symbols, the trace's symbol and delay totals, and its
    verdict and service beam pair, each number at its full repr."""
    steps = tuple(AccessStep(i, ("UE", "BS")[i % 2], *step, i)
                  for i, step in enumerate(trace.steps.tolist(), 1))
    return (f"AccessTrace(steps={steps!r}, total_symbols={len(steps)!r}, "
            f"total_delay={len(steps) * symbol_duration!r}, "
            f"terminated={trace.terminated!r}, final_k={trace.final_k!r}, "
            f"final_theta_u={trace.final_theta_u!r}, "
            f"fallback_events={trace.fallback_events!r})")
