"""The five BLAS/LAPACK routines GP training calls, taken straight from
scipy's compiled f2py modules `scipy.linalg._flapack` and `scipy.linalg._fblas`.

Only training loads this module: `kernels` and `gpr` import it inside the
functions that call these routines (the NLML epochs and their Gram
products). Scoring, and a fitted or loaded model's K, factor and alpha, are
numpy's einsum loops only, so a process that loads a model file to score
never imports scipy, whose OpenBLAS costs about 5 MB of resident memory.

Importing `scipy.linalg` runs the package `__init__`, which in scipy 1.17
clones numpy through `array_api_compat` and so imports `numpy.testing`,
`numpy.f2py` and `charset_normalizer`. Every training command
(`train-forward` of a GP, `compare-forward`) is a fresh process that paid
for this: `import corrml.gpr` took 0.39 s with it and takes 0.21 s without,
and the peak RSS of the commands falls by 16-19 MB (2-core box, Python
3.11, numpy 2.4, scipy 1.17). None of that is needed to call `dpotrf`. Here
the two extension modules are found in scipy's `linalg` directory and loaded
under their canonical names with the stdlib extension loader, so that
`__init__` never runs. The top-level `scipy` package is still imported
(about 17 ms and 1.3 MB), here and nowhere else in corrml: its `__init__` is
where a scipy distribution sets itself up, for example the DLL search path
that Windows wheels need to find OpenBLAS. The extension modules are
registered in `sys.modules` (or taken from there when `scipy.linalg` came
first), so a later `import scipy.linalg` reuses them: each name below is the
very object that `scipy.linalg.lapack` or `scipy.linalg.blas` exports,
calling the same OpenBLAS, and results are bit-identical.

These are scipy's raw f2py wrappers: the LAPACK ones return `info` beside
their result, and callers check it.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder


def _load_extension(name: str):
    """Module `scipy.linalg.<name>`, loaded without importing `scipy.linalg`."""
    fullname = f"scipy.linalg.{name}"
    module = sys.modules.get(fullname)
    if module is not None:
        return module
    import scipy

    linalg_dir = os.path.join(scipy.__path__[0], "linalg")
    spec = FileFinder(linalg_dir, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(fullname)
    if spec is None:
        raise ModuleNotFoundError(f"no compiled {fullname} in {linalg_dir}", name=fullname)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[fullname] = module
    return module


_flapack = _load_extension("_flapack")
_fblas = _load_extension("_fblas")

dpotrf = _flapack.dpotrf
dpotri = _flapack.dpotri
dpotrs = _flapack.dpotrs
dgemm = _fblas.dgemm
ddot = _fblas.ddot
