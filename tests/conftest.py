"""Helpers shared by the test modules: numpy's SIMD dispatch level, which
fixes the bits of its exp, power, tan and arctan loops, and the mask that
lowers it with no rebuild."""


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
