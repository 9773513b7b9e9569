"""Load one of scipy's compiled modules from its file, without its package.

rda calls one C function of scipy.integrate (QUADPACK's _qagse), two of
scipy.fft (pocketfft's r2c and c2r) and three ufuncs of scipy.special
(erf, erfcx and gamma, from _special_ufuncs). Importing any of these
packages to reach them runs its __init__: scipy.integrate's also loads
scipy.optimize, scipy.sparse, scipy.linalg and more, about 160 ms and
24 MB on top of `import rda.cli`, scipy.fft's costs about 37 ms and
scipy.special's about 0.27 s. The extension file itself needs only numpy.

The module is registered in sys.modules under its full name, so a later
normal import of its package finds and shares the same module object,
and a module already imported the normal way is returned as it is.
"""

from __future__ import annotations

import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec
from pathlib import Path

import scipy

__all__ = ["load_extension"]


def load_extension(name: str):
    """The compiled module name, such as "scipy.integrate._quadpack".

    Raises ImportError when scipy has no extension file of that name.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    package = name.rpartition(".")[0].split(".")
    directory = Path(scipy.__file__).parent.joinpath(*package[1:])
    finder = FileFinder(str(directory), (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec(name)
    if spec is None:
        raise ImportError(f"no compiled module {name} in {directory}", name=name)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module
