"""numpy, imported on its first use.

Importing numpy costs more than the whole of a `window` or `finite-t`
run, and neither touches an array.  The array modules (scan_engine,
zero_temperature, thomas_fermi) take ``np`` from here: a module object
that runs numpy's import the first time one of its attributes is read.
"""

import importlib.util
import sys


def _lazy_import(name):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy_import("numpy")
