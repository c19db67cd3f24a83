"""The OpenBLAS core a process loaded, which the artifact bytes follow."""

import ctypes
import glob
import os


def loaded_core() -> str:
    """Name of the core numpy's bundled OpenBLAS loaded in this process,
    or "unknown" for a numpy build without its own scipy-openblas.

    It calls `scipy_openblas_get_corename64_` of numpy's
    `numpy.libs/libscipy_openblas64_*.so` through ctypes."""
    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"
