"""numpy's SIMD dispatch targets on this CPU, for the tests that turn them
off in a child process (``NPY_DISABLE_CPU_FEATURES``)."""


def avx512_features() -> list[str]:
    """The AVX-512 dispatch targets numpy finds on this CPU."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__ as features
    return [k for k, on in features.items() if on and (k.startswith("AVX512") or k == "X86_V4")]
