"""Load one of scipy's compiled modules from its file, without its package.

rda calls two of scipy.fft's C functions, pocketfft's r2c and c2r, so it
loads one private module. Importing scipy.fft to reach them runs its
__init__, which costs about 37 ms. The extension file itself needs only
numpy. The special functions rda reads come from elsewhere: erf and erfc
from the standard library's math module, and Gamma(5/4) as a literal
(rda.analysis, rda.kernels).

Nor is the scipy package itself imported: its directory comes from
importlib's finder, since scipy's own __init__ pulls in its test
utilities, subprocess and sysconfig (about 11 ms and 1.2 MB). Loading
pocketfft leaves scipy out of sys.modules. One reader still imports it:
analysis.DecayFit.half_width's stdtrit.

Leaving the scipy package out, with the closed-form decay fit of
analysis, took `rda run toy` from a peak RSS of 36.9 MB to 33.8 MB, and
its startup (import rda.cli, validate toy) from 0.288 s to 0.258 s:
perfbench medians of 10 pairs on 2 vCPUs, Python 3.11.7, numpy 2.4.6,
scipy 1.17.1.

The module is registered in sys.modules under its full name, so a later
normal import of its package finds and shares the same module object,
and a module already imported the normal way is returned as it is. A
module that cannot be loaded, or that fails the check its caller hands
the loader, raises one ImportError (_refusal) that names it and the
installed scipy's version, read from its metadata, not by importing it:
the CLI reports that as one `error:` line. rda.solver checks pocketfft's
kernels on a unit impulse.
"""

from __future__ import annotations

import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec
from pathlib import Path

__all__ = ["load_extension"]


def _refusal(name: str, problem: str) -> ImportError:
    """The one-line ImportError for compiled module name: the installed
    version of its top-level package, read from its metadata without
    importing it, then problem, as in "scipy 1.17.1 has no compiled
    module ..."."""
    # Imported here: importlib.metadata costs startup that only an error
    # needs.
    from importlib import metadata

    distribution = name.partition(".")[0]
    try:
        release = f"{distribution} {metadata.version(distribution)}"
    except metadata.PackageNotFoundError:
        release = f"{distribution} (version unknown)"
    return ImportError(f"{release} {problem}", name=name)


def load_extension(name: str, check=None):
    """The compiled module name, a dotted name inside an installed package.

    Raises ImportError, naming the module and the installed version of its
    top-level package, when there is no extension file of that name, it
    does not load, or check, when given, returns False on the module:
    check(module) tells whether its private functions still compute what
    the caller calls them for.
    """
    module = sys.modules.get(name)
    if module is None:
        module = _load(name)
    if check is not None and not check(module):
        raise _refusal(name, f"has a compiled module {name} that fails its check")
    return module


def _load(name: str):
    """The compiled module name, loaded from its file and registered in
    sys.modules; load_extension's ImportError if it cannot be."""
    package = name.rpartition(".")[0].split(".")
    top = find_spec(package[0])
    spec = None
    if top is not None:
        directory = Path(top.submodule_search_locations[0]).joinpath(*package[1:])
        finder = FileFinder(str(directory), (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(name)
    if spec is None:
        raise _refusal(name, f"has no compiled module {name}")
    module = module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except ImportError as exc:
        raise _refusal(name, f"cannot load its compiled module {name}: {exc}") from None
    sys.modules[name] = module
    return module
