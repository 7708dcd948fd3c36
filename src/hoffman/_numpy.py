"""numpy, imported on first use.

``from ._numpy import np`` binds the numpy module without executing it, so
that importing the library (and the CLI) does not pay for numpy when no
command needs an array.  The first attribute access, such as ``np.zeros``,
imports numpy; after that ``np`` is the ordinary module.  When numpy is
already imported, ``np`` is that module from the start.

``importlib.util.LazyLoader`` on Python 3.11 does not lock that first access:
two threads touching ``np`` for the first time at once can both start the
import.  Import numpy (or touch ``np``) once before starting threads that use
the library.
"""

import importlib.util
import sys


def _lazy_numpy():
    module = sys.modules.get("numpy")
    if module is not None:
        return module
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()
