"""Load one of scipy's compiled modules from its file, without its package.

rda calls two of scipy.fft's C functions (pocketfft's r2c and c2r) and
three ufuncs of scipy.special (erf, erfcx and gamma, from
_special_ufuncs), so it loads two private modules. Importing either
package to reach them runs its __init__: scipy.fft's costs about 37 ms
and scipy.special's about 0.27 s. The extension file itself needs only
numpy.

Nor is the scipy package itself imported: its directory comes from
importlib's finder, since scipy's own __init__ pulls in its test
utilities, subprocess and sysconfig (about 11 ms and 1.2 MB). Loading
pocketfft and _special_ufuncs leaves scipy out of sys.modules. One reader
still imports it: analysis.DecayFit.half_width's stdtrit.

Leaving scipy out, loading the ufunc module on first use through
special_ufuncs() and the closed-form decay fit of analysis together take
`rda run toy` from a peak RSS of 36.9 MB to 33.8 MB, and its startup
(import rda.cli, validate toy) from 0.288 s to 0.258 s: perfbench medians
of 10 pairs on 2 vCPUs, Python 3.11.7, numpy 2.4.6, scipy 1.17.1.

The module is registered in sys.modules under its full name, so a later
normal import of its package finds and shares the same module object,
and a module already imported the normal way is returned as it is. A
module that cannot be loaded raises one ImportError that names it and the
installed scipy's version, read from its metadata, not by importing it:
the CLI reports that as one `error:` line.
"""

from __future__ import annotations

import functools
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec
from pathlib import Path

__all__ = ["load_extension", "special_ufuncs"]


def _release(distribution: str) -> str:
    """distribution and its installed version, read from its metadata
    without importing it, such as "scipy 1.17.1"."""
    # Imported here: importlib.metadata costs startup that only an error
    # needs.
    from importlib import metadata

    try:
        return f"{distribution} {metadata.version(distribution)}"
    except metadata.PackageNotFoundError:
        return f"{distribution} (version unknown)"


def load_extension(name: str):
    """The compiled module name, such as "scipy.special._special_ufuncs".

    Raises ImportError, naming the module and the installed version of its
    top-level package, when there is no extension file of that name or it
    does not load.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    package = name.rpartition(".")[0].split(".")
    top = find_spec(package[0])
    spec = None
    if top is not None:
        directory = Path(top.submodule_search_locations[0]).joinpath(*package[1:])
        finder = FileFinder(str(directory), (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(name)
    if spec is None:
        raise ImportError(f"{_release(package[0])} has no compiled module {name}",
                          name=name)
    module = module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except ImportError as exc:
        raise ImportError(f"{_release(package[0])} cannot load its compiled "
                          f"module {name}: {exc}", name=name) from None
    sys.modules[name] = module
    return module


@functools.cache
def special_ufuncs():
    """scipy.special's compiled ufunc module, loaded on first use (about
    1.1 MB): only the distinct-velocity lower bounds (erf) and the
    identity suite (erfcx, gamma) call its ufuncs, so no other `rda run`
    loads it."""
    return load_extension("scipy.special._special_ufuncs")
