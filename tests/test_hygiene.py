"""Import hygiene: no unused imports, no stale __all__ entry, no export
that only tests read, no heavy module pulled in by the CLI, and no new
stale lookup in the benchmark tracer."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rda

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(path for folder in ("src/rda", "tests", "scripts")
                 for path in (ROOT / folder).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Imported names a module never uses and does not list in __all__."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_checker_catches_an_unused_import():
    source = ("import math\nimport os.path\nfrom re import compile as c, escape\n"
              "__all__ = ['escape']\nprint(math.pi)\n")
    assert unused_imports(source) == ["line 2: os", "line 3: c"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", sorted(
    path.stem for path in (ROOT / "src/rda").glob("*.py") if path.stem != "__init__"))
def test_all_names_exist(module):
    # A stale __all__ entry breaks `from rda.<module> import *`.
    mod = importlib.import_module(f"rda.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


# The code that counts as a reader of the package: perfbench calls
# config.serialize_scenario, which nothing else in the product does.
PRODUCT = sorted(path for folder in ("src/rda", "scripts", "perfbench")
                 for path in (ROOT / folder).rglob("*.py"))


def loaded_names(source: str) -> set[str]:
    """Every name a module reads, bare (name) or as an attribute (x.name)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def unread_exports(source: str, loaded: set[str]) -> list[str]:
    """The names of the module's __all__ that are not in loaded."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return [name for name in ast.literal_eval(node.value)
                    if name not in loaded]
    return []


def test_checker_catches_an_export_only_tests_read():
    module = "__all__ = ['called', 'read', 'stored', 'tested']\n"
    product = ("import m\nfrom m import called, stored\ncalled()\n"
               "x = m.read\nm.stored = 1\n")
    assert unread_exports(module, loaded_names(product)) == ["stored", "tested"]


@pytest.mark.parametrize("module", sorted(
    path.stem for path in (ROOT / "src/rda").glob("*.py") if path.stem != "__init__"))
def test_every_export_has_a_product_reader(module):
    # No product code that only tests use: an exported name the package,
    # its scripts and its benchmark never read is there for tests alone.
    loaded = set().union(*(loaded_names(path.read_text(encoding="utf-8"))
                           for path in PRODUCT))
    source = (ROOT / "src/rda" / f"{module}.py").read_text(encoding="utf-8")
    assert unread_exports(source, loaded) == []


# Each costs startup time and memory that rda never uses: scipy.integrate
# alone, with the rest it loads, is a quarter of both, and scipy.special
# is 0.27 s of import. rda loads the one compiled module it calls,
# pocketfft, without its package.
HEAVY = ["scipy.stats", "scipy.fft", "scipy.integrate", "scipy.optimize",
         "scipy.sparse", "scipy.linalg", "scipy.special"]
# QUADPACK's module, the scipy package's own __init__ (about 11 ms and
# 1.2 MB), scipy.special's ufunc module (1.1 MB) and numpy.polynomial
# (0.9 MB, and LAPACK's eigvalsh on leggauss's first call), which no
# command loads: erf and erfc come from the standard library, Gamma(5/4)
# is a literal and the Gauss-Legendre rule a pinned table.
QUADPACK = "scipy.integrate._quadpack"
SCIPY = "scipy"
SPECIAL = "scipy.special._special_ufuncs"
POLYNOMIAL = "numpy.polynomial"
# The loader of scipy's compiled modules, which only rda run imports.
EXT = "rda._scipy_ext"
# Only rda run --jobs N with N > 1 starts a process pool.
POOL = "concurrent.futures"
# The stepper and the compiled pocketfft module it loads, which only rda run
# imports.
SOLVER = "rda.solver"
POCKETFFT = "scipy.fft._pocketfft.pypocketfft"
STEPS = ["import", "list", "classify", "run decay", "run", "verify-identities"]


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """The HEAVY modules, QUADPACK, SPECIAL, POLYNOMIAL, the pool module,
    SOLVER, EXT, POCKETFFT, SCIPY and every other scipy module that a
    fresh interpreter holds after each step: import rda.cli, rda list,
    rda classify toy, rda run --jobs 1 of a small config that fits a
    decay exponent, rda run --jobs 1 of two scenarios that between them
    read the distinct-velocity lower bounds (erf), the drag envelope and
    the exact error, and last, as the control, import
    scipy.integrate. A module stays loaded, so each step also holds what
    the steps before it loaded. rda verify-identities runs in a second
    interpreter, right after import rda.cli, so its step holds no module
    that only a run loads."""
    from test_cli import FAST_CONFIG

    out = tmp_path_factory.mktemp("out")
    (out / "fast.cfg").write_text(FAST_CONFIG, encoding="utf-8")
    src = str(Path(rda.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"""if True:
        import json, sys
        import rda.cli
        def seen():
            watched = {[*HEAVY, QUADPACK, SPECIAL, POLYNOMIAL, POOL, SOLVER,
                        EXT, POCKETFFT]!r}
            return sorted(name for name in sys.modules if name in watched
                          or name.partition(".")[0] == {SCIPY!r})
        steps = {{"import": seen()}}
        for step, argv in json.loads(sys.argv[1]):
            if argv is None:
                import scipy.integrate
            else:
                assert rda.cli.main(argv) == 0, step
            steps[step] = seen()
        print(json.dumps(steps))
        """

    def steps(*argvs):
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                              env=env, check=True, capture_output=True, text=True)
        return json.loads(proc.stdout.splitlines()[-1])

    found = steps(("list", ["list"]),
                  ("classify", ["classify", "toy"]),
                  ("run decay", ["run", str(out / "fast.cfg"),
                                 "--out", str(out / "fast"), "--jobs", "1"]),
                  ("run", ["run", "cas2-distinct", "remark51-exact",
                           "--out", str(out / "run"), "--jobs", "1"]),
                  ("import scipy.integrate", None))
    assert "decay_exponent" in (out / "fast" / "verdicts.csv").read_text()
    found["verify-identities"] = steps(
        ("verify-identities", ["verify-identities"]))["verify-identities"]
    return found


@pytest.mark.parametrize("module", HEAVY)
@pytest.mark.parametrize("step", STEPS)
def test_cli_leaves_out_heavy_scipy(loaded, step, module):
    assert module not in loaded[step]


@pytest.mark.parametrize("step", STEPS)
def test_cli_leaves_out_the_process_pool(loaded, step):
    assert POOL not in loaded[step]


@pytest.mark.parametrize("step", ["import", "list", "classify", "run decay"])
def test_cli_leaves_out_scipy_and_its_special_functions(loaded, step):
    # Neither the scipy package nor the special ufuncs: fitting a decay
    # exponent reads neither.
    assert SCIPY not in loaded[step]
    assert SPECIAL not in loaded[step]


def test_no_step_loads_the_special_ufuncs_or_numpy_polynomial(loaded):
    # cas2-distinct's bounds call math.erf, the identity suite math.erfc,
    # and the drag weights and the suite read the pinned Gauss-Legendre
    # table: no step holds either module.
    assert [step for step in STEPS
            if SPECIAL in loaded[step] or POLYNOMIAL in loaded[step]] == []


def test_no_command_loads_quadpack(loaded):
    # The identity suite integrates on numpy's Gauss-Legendre panels, so
    # no step loads QUADPACK's module.
    assert [step for step in STEPS if QUADPACK in loaded[step]] == []


def test_verify_identities_loads_no_scipy_module(loaded):
    # The suite reads nothing of scipy's, so it loads no scipy module and
    # not even the loader of scipy's compiled modules.
    assert [name for name in loaded["verify-identities"]
            if name.partition(".")[0] == SCIPY or name == EXT] == []


@pytest.mark.parametrize("step", ["import", "list", "classify", "verify-identities"])
def test_only_run_imports_the_solver_and_pocketfft(loaded, step):
    # These commands make no transform, so they run whatever happens to
    # scipy's private pocketfft module.
    assert SOLVER not in loaded[step]
    assert POCKETFFT not in loaded[step]


def test_run_imports_the_solver_and_pocketfft(loaded):
    # The control for the test above.
    assert SOLVER in loaded["run decay"]
    assert POCKETFFT in loaded["run decay"]


def test_control_import_is_seen(loaded):
    # The control for the tests above: a package imported normally is seen,
    # with what it loads.
    assert set(loaded["import scipy.integrate"]) >= {
        "scipy.fft", "scipy.integrate", "scipy.optimize", "scipy.sparse",
        "scipy.linalg", "scipy.special", QUADPACK, SPECIAL, POLYNOMIAL}


def test_half_width_imports_scipy_special():
    # The one reader of the Student-t quantile pays for its package.
    code = ("import sys\nfrom rda.analysis import fit_decay_exponent\n"
            "fit = fit_decay_exponent(range(1, 11), range(10, 0, -1), 1.0)\n"
            "print('scipy.special' in sys.modules)\nfit.half_width\n"
            "print('scipy.special' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.stdout.split() == ["False", "True"]


@pytest.mark.parametrize("first", ["rda", "scipy"])
def test_loaded_extensions_are_scipys_modules(first, tmp_path):
    # pocketfft loaded directly by rda run and by a normal import of
    # scipy.fft is one module object, in either order, so neither runs a
    # second copy.
    from test_cli import FAST_CONFIG

    config = tmp_path / "fast.cfg"
    config.write_text(FAST_CONFIG, encoding="utf-8")
    argv = ["run", str(config), "--out", str(tmp_path / "out"), "--jobs", "1"]
    steps = [f"import rda.cli; assert rda.cli.main({argv!r}) == 0",
             "import scipy.fft"]
    code = "\n".join([*(steps if first == "rda" else steps[::-1]),
                      "import sys",
                      "from rda import solver",
                      "print(solver.pypocketfft is "
                      "sys.modules['scipy.fft._pocketfft.basic'].pfft)"])
    proc = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.stdout.splitlines()[-1] == "True"


def linalg_uses(source: str) -> list[str]:
    """Reads of numpy.linalg, through any alias of numpy (np.linalg.lstsq),
    and imports of it or of names from it."""
    tree = ast.parse(source)
    numpy_names = {"numpy"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("numpy.linalg"):
                    found.append((node.lineno, f"import {alias.name}"))
                elif alias.name == "numpy":
                    numpy_names.add(alias.asname or alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module and (
                node.module.startswith("numpy.linalg")
                or node.module == "numpy"
                and any(alias.name == "linalg" for alias in node.names)):
            found.append((node.lineno, f"from {node.module} import ..."))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "linalg"
                and isinstance(node.value, ast.Name) and node.value.id in numpy_names):
            found.append((node.lineno, f"{node.value.id}.linalg"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_linalg_checker_catches_a_solver_call():
    source = ("import numpy as np\nimport numpy.linalg\nfrom numpy import linalg\n"
              "coef = np.linalg.lstsq(A, y)\nx = numpy.linalg.norm(y)\n"
              "z = scipy.linalg.solve(A, y)\nw = np.dot(y, y)\n")
    assert linalg_uses(source) == [
        "line 2: import numpy.linalg", "line 3: from numpy import ...",
        "line 4: np.linalg", "line 5: numpy.linalg"]


@pytest.mark.parametrize("path", sorted((ROOT / "src/rda").glob("*.py")),
                         ids=lambda p: p.name)
def test_no_linalg_in_the_package(path):
    # The decay fit is a closed form: a LAPACK solver's first call costs
    # about 1.0 MB for what two dot products compute.
    assert linalg_uses(path.read_text(encoding="utf-8")) == []


def test_loader_refuses_a_missing_extension():
    from rda._scipy_ext import load_extension

    with pytest.raises(ImportError, match="no compiled module"):
        load_extension("scipy.integrate._no_such_module")


_DISPATCHING = ("numpy.fft", "scipy.fft")


def transform_dispatch(source: str, may_import_kernels: bool) -> list[str]:
    """Calls into numpy.fft or scipy.fft, names imported from them, and, unless
    may_import_kernels, any import of pocketfft's kernel module pypocketfft
    or any string that names it, such as a module name handed to a loader."""
    tree = ast.parse(source)
    aliases: dict[str, str] = {}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and "pypocketfft" in node.value and not may_import_kernels):
            found.append(f"line {node.lineno}: {node.value!r}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                if "pypocketfft" in alias.name and not may_import_kernels:
                    found.append(f"line {node.lineno}: import {alias.name}")
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                if "pypocketfft" in name and not may_import_kernels:
                    found.append(f"line {node.lineno}: import {name}")
                elif name in _DISPATCHING or node.module in _DISPATCHING:
                    found.append(
                        f"line {node.lineno}: from {node.module} import {alias.name}")
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        parts = []
        func = node.func
        while isinstance(func, ast.Attribute):
            parts.append(func.attr)
            func = func.value
        if not isinstance(func, ast.Name):
            continue
        name = ".".join([aliases.get(func.id, func.id), *reversed(parts)])
        if name.startswith(tuple(f"{module}." for module in _DISPATCHING)):
            found.append(f"line {node.lineno}: {name}")
    return found


def test_transform_checker_catches_dispatch():
    source = ("import numpy as np\nimport scipy.fft\nfrom scipy import fft\n"
              "from scipy.fft._pocketfft import pypocketfft\n"
              "np.fft.rfftfreq(8)\nscipy.fft.irfft(x, n=8)\nnp.abs(x)\n"
              "load_extension('scipy.fft._pocketfft.pypocketfft')\n")
    assert transform_dispatch(source, may_import_kernels=True) == [
        "line 3: from scipy import fft", "line 5: numpy.fft.rfftfreq",
        "line 6: scipy.fft.irfft"]
    found = transform_dispatch(source, may_import_kernels=False)
    assert "line 4: import scipy.fft._pocketfft.pypocketfft" in found
    assert "line 8: 'scipy.fft._pocketfft.pypocketfft'" in found


@pytest.mark.parametrize("path", sorted((ROOT / "src/rda").glob("*.py")),
                         ids=lambda p: p.name)
def test_transforms_only_through_the_solver_kernels(path):
    # scipy.fft's dispatch costs about as much as a transform at the step
    # loop's sizes; every transform goes through solver._rfft/_irfft.
    assert transform_dispatch(path.read_text(encoding="utf-8"),
                              may_import_kernels=path.name == "solver.py") == []


def output_name_tests(source: str, names) -> list[str]:
    """Membership tests of a string constant among names: "decay" in ...,
    the per-output branch that analysis.OUTPUT_RULES replaces."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Compare) and isinstance(node.left, ast.Constant)
                and node.left.value in names
                and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)):
            found.append(f"line {node.lineno}: {node.left.value!r} in ...")
    return found


def test_output_branch_checker_catches_a_membership_test():
    source = ('if "decay" in outputs:\n    pass\n'
              'x = "envelope" not in scenario.outputs\n'
              'y = name in outputs\nz = "a" in "abc"\nw = "decay" == kind\n')
    assert output_name_tests(source, {"decay", "envelope"}) == [
        "line 1: 'decay' in ...", "line 3: 'envelope' in ..."]


@pytest.mark.parametrize("path", sorted((ROOT / "src/rda").glob("*.py")),
                         ids=lambda p: p.name)
def test_no_per_output_branch(path):
    # What an output needs, reads and how it is judged lives in one entry
    # of analysis.OUTPUT_RULES; no module asks whether an output is declared.
    from rda.analysis import OUTPUT_RULES

    assert output_name_tests(path.read_text(encoding="utf-8"), OUTPUT_RULES) == []


SLOT_NAMES = frozenset({"f1", "f2", "g1", "g2"})


def slot_convention_restated(source: str) -> list[str]:
    """Reads of a coupling slot as an attribute (system.f1) and tuple, list
    or set displays that hold two or more slot names (("f1", "g1")): the
    convention that core.SLOTS owns, spelled out again. A shape key such as
    ("f1", 1, 1) names one slot and is allowed."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and node.attr in SLOT_NAMES):
            found.append((node.lineno, f".{node.attr}"))
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            names = [elt.value for elt in node.elts
                     if isinstance(elt, ast.Constant) and elt.value in SLOT_NAMES]
            if len(names) >= 2:
                found.append((node.lineno, str(names)))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_slot_checker_catches_a_restated_convention():
    source = ('own_is_u = slot in ("f1", "g1")\nx = system.g2\n'
              'for name in ["f1", "f2", "g1", "g2"]:\n    pass\n'
              'flux = {"g1", 2, "g2"}\nkey = ("f1", 1, 1)\n'
              'terms = getattr(system, name)\nsystem.f1 = ()\n'
              'spec = SystemSpec(f1=terms)\nm = {"f1": 0, "g1": 1}\n')
    assert slot_convention_restated(source) == [
        "line 1: ['f1', 'g1']", "line 2: .g2",
        "line 3: ['f1', 'f2', 'g1', 'g2']", "line 5: ['g1', 'g2']"]


@pytest.mark.parametrize("path", sorted(
    path for path in (ROOT / "src/rda").glob("*.py") if path.name != "core.py"),
    ids=lambda p: p.name)
def test_slot_convention_has_one_owner(path):
    # Which component and derivative order each slot has is core.SLOTS'
    # alone; every coefficient is read through SystemSpec.monomials().
    assert slot_convention_restated(path.read_text(encoding="utf-8")) == []


def config_key_constants(source: str, keys) -> list[str]:
    """String constants equal to a config key: a key that core.FIELDS owns,
    spelled out again."""
    return [f"line {node.lineno}: {node.value!r}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value in keys]


def test_config_key_checker_catches_a_planted_key():
    source = ('value = pairs["time.dt"]\nline = "time.dt = 0.01"\n'
              'key = prefix + "dt"\nif key in ("grid.L", "grid.n"):\n    pass\n')
    assert config_key_constants(source, {"time.dt", "grid.L", "grid.n"}) == [
        "line 1: 'time.dt'", "line 4: 'grid.L'", "line 4: 'grid.n'"]


# Strings that equal a config key by coincidence, by module: the first
# column of verdicts.csv is a verdict row's name.
NOT_CONFIG_KEYS = {"cli.py": {"'name'"}}


@pytest.mark.parametrize("path", sorted(
    path for path in (ROOT / "src/rda").glob("*.py") if path.name != "core.py"),
    ids=lambda p: p.name)
def test_config_keys_have_one_owner(path):
    # Every key, its field, converter, kinds and requirements live in one
    # entry of core.FIELDS; config parses and serializes through core.KEYS.
    from rda.core import FIELDS, KEYS

    found = config_key_constants(path.read_text(encoding="utf-8"),
                                 {*KEYS, *(entry.key for entry in FIELDS)})
    allowed = NOT_CONFIG_KEYS.get(path.name, set())
    assert [f for f in found if f.partition(": ")[2] not in allowed] == []


# The config keys that every builtin reading them sets to one value, each
# with why it is still a key. A setting that no run varies is a constant
# of the package, not a key.
ONE_VALUE_KEYS = {
    "system.d1": "a coefficient of the paper's system, read by the growth bounds",
    "system.c1": "a coefficient of the paper's system, read by the normal-form rates",
    "initial.u.power": "the exponent of the paper's algebraically localized data",
    "initial.v.power": "the exponent of the paper's algebraically localized data",
    "envelope.r": "the exponent of the algebraic weight, the same class's bound",
}


def test_every_config_key_is_varied_or_named():
    # A builtin counts for a key only when it reads the key (Field.owner).
    from rda.core import KEYS
    from rda.scenarios import BUILTIN_SCENARIOS, get_scenario

    builtins = [get_scenario(name) for name in BUILTIN_SCENARIOS]
    values = {key: {getattr(owner, entry.path[-1]) for scenario in builtins
                    if (owner := entry.owner(scenario)) is not None}
              for key, entry in KEYS.items()}
    assert sorted(set(ONE_VALUE_KEYS) - set(KEYS)) == []
    assert sorted(key for key, seen in values.items() if len(seen) < 2) == sorted(
        ONE_VALUE_KEYS)


def written_out_refusals(source: str) -> list[str]:
    """String pieces that contain "failed", except a " failed" that ends an
    f-string in validate_scenario: a refusal written out instead of one
    formatted from a requirement table's text. Also each try statement in
    validate_scenario: a handler that turns an error into a refusal."""
    tree = ast.parse(source)
    shared, tries = set(), []
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef) and func.name == "validate_scenario":
            shared = {id(node.values[-1]) for node in ast.walk(func)
                      if isinstance(node, ast.JoinedStr)}
            tries = [node for node in ast.walk(func) if isinstance(node, ast.Try)]
    found = [node for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and "failed" in node.value
             and not (id(node) in shared and node.value == " failed")]
    return [f"line {node.lineno}: try" if isinstance(node, ast.Try) else
            f"line {node.lineno}: {node.value!r}"
            for node in sorted(found + tries,
                               key=lambda node: (node.lineno, node.col_offset))]


def test_refusal_checker_catches_a_written_out_refusal():
    source = ('def validate_scenario(scenario):\n'
              '    out = [f"{label} {text} failed", f"{label}: finite failed",\n'
              '           "dt failed", f"{text} failed (twice)"]\n'
              '    try:\n        x = points()\n'
              '    except MemoryError as exc:\n        out.append(str(exc))\n'
              'def other(text):\n    return f"{text} failed"\n'
              'NEEDS = ((lambda v: v > 0, "> 0 failed"),)\n')
    assert written_out_refusals(source) == [
        "line 2: ': finite failed'", "line 3: 'dt failed'",
        "line 3: ' failed (twice)'", "line 4: try", "line 9: ' failed'",
        "line 10: '> 0 failed'"]


def test_every_refusal_comes_from_a_table():
    # Every refusal text of validate_scenario is an entry of core.FIELDS,
    # core.RELATIONS, core.DATA_NEEDS or analysis.OUTPUT_RULES, which
    # tests/test_core.py::TestRefusalTables triggers one by one, and no try
    # in it turns an error into a refusal of its own.
    source = (ROOT / "src/rda/core.py").read_text(encoding="utf-8")
    assert written_out_refusals(source) == []


def scopes_of(source: str, module: str, matches) -> list[str]:
    """The scope of each node that matches, in source order: module.function,
    with each enclosing class and function, or module alone at top level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if matches(child):
                found.append(scope)
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}" if named else scope)

    visit(ast.parse(source), module)
    return found


def raising_functions(source: str, module: str) -> list[str]:
    """The scope of each raise statement in source order."""
    return scopes_of(source, module, lambda node: isinstance(node, ast.Raise))


def test_raise_checker_names_each_enclosing_function():
    source = ("def f(x):\n    if x:\n        raise ValueError('x')\n"
              "class C:\n    def m(self):\n        def inner():\n"
              "            raise KeyError\n        raise TypeError\n"
              "raise SystemExit\n")
    assert raising_functions(source, "mod") == [
        "mod.f", "mod.C.m.inner", "mod.C.m", "mod"]


def test_each_precondition_has_one_owner():
    # What a run can be asked is decided once: by core.FIELDS,
    # core.RELATIONS, core.DATA_NEEDS and analysis.OUTPUT_RULES before it
    # starts, and by analysis.diagnose for what a blow-up cut short. The
    # functions behind them compute without checking again. Only a config
    # term that does not parse and a sup norm that is not positive, which
    # no table rules out, are raised.
    found = [scope for module in ("analysis", "kernels", "solver", "core")
             for scope in raising_functions(
                 (ROOT / f"src/rda/{module}.py").read_text(encoding="utf-8"), module)]
    assert found == ["analysis.fit_decay_exponent", "core._terms"]


def stderr_writers(source: str, module: str) -> list[str]:
    """The scope of each use of sys.stderr in source order: a print(...,
    file=sys.stderr), a sys.stderr.write(...) or any other reach for it."""
    return scopes_of(source, module, lambda node: (
        isinstance(node, ast.Attribute) and node.attr == "stderr"
        and isinstance(node.value, ast.Name) and node.value.id == "sys"))


def test_stderr_checker_catches_a_planted_write():
    source = ("import sys\ndef warn(m):\n    print(m, file=sys.stderr)\n"
              "class R:\n    def log(self, m):\n        sys.stderr.write(m)\n"
              "def quiet(m):\n    print(m, file=sys.stdout)\n"
              "err = sys.stderr\n")
    assert stderr_writers(source, "mod") == ["mod.warn", "mod.R.log", "mod"]


def test_stderr_carries_only_errors():
    # A run that exits 0 writes nothing to stderr: only the CLI's `error:`
    # lines go there, from main (a refused command) and _cmd_run (each
    # failed target of a multi-target run).
    found = [scope for path in sorted((ROOT / "src/rda").glob("*.py"))
             for scope in stderr_writers(path.read_text(encoding="utf-8"), path.stem)]
    assert found == ["cli._cmd_run", "cli.main"]


def rda_module_patches(source: str) -> list[str]:
    """Assignments to an attribute of an rda module (solver.run = f,
    rda.cli.main = g, kernels.x += 1) and setattr calls on one: a script
    that watches a run by patching the package instead of observing it.
    A name counts as an rda module when `import rda...` or `from rda
    import ...` binds it."""
    tree = ast.parse(source)
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name.split(".")[0]
                           for alias in node.names
                           if alias.name.split(".")[0] == "rda")
        elif isinstance(node, ast.ImportFrom) and node.module == "rda":
            modules.update(alias.asname or alias.name for alias in node.names)

    def root(node):
        while isinstance(node, ast.Attribute):
            node = node.value
        return node.id if isinstance(node, ast.Name) else None

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif (isinstance(node, ast.Call) and node.args
              and getattr(node.func, "id", getattr(node.func, "attr", None)) == "setattr"
              and root(node.args[0]) in modules):
            found.append((node.lineno, f"setattr({ast.unparse(node.args[0])}, ...)"))
            continue
        else:
            continue
        for target in targets:
            for part in ast.walk(target):
                if (isinstance(part, ast.Attribute) and isinstance(part.ctx, ast.Store)
                        and root(part) in modules):
                    found.append((node.lineno, f"{ast.unparse(part)} = ..."))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_patch_checker_catches_a_planted_patch():
    source = ("import rda.cli\nfrom rda import kernels, solver as s\n"
              "import numpy as np\ns.run_scenario = f\nrda.cli.main = g\n"
              "setattr(kernels, '_refine_panels', h)\nnp.x = 1\nx.y = s.z\n"
              "a, kernels.b = 1, 2\nkernels.c += 1\nmp.setattr(s.run, 'y', 2)\n"
              "value = kernels.verify_identity_suite().integrals\n")
    assert rda_module_patches(source) == [
        "line 4: s.run_scenario = ...", "line 5: rda.cli.main = ...",
        "line 6: setattr(kernels, ...)", "line 9: kernels.b = ...",
        "line 10: kernels.c = ...", "line 11: setattr(s.run, ...)"]


@pytest.mark.parametrize("path", sorted((ROOT / "scripts").glob("*.py")),
                         ids=lambda p: p.name)
def test_scripts_patch_no_rda_module(path):
    # A script watches a run through cli.run_experiment's observers and the
    # reports the package returns; a patched module attribute breaks
    # without a word when the package is refactored.
    assert rda_module_patches(path.read_text(encoding="utf-8")) == []


# The benchmark tracer's lookups that find nothing in the package today.
# A refactor that moves another traced name adds a line here, or fixes the
# tracer, instead of letting its layer silently read 0.
STALE_TRACER_TARGETS = {
    "rda.special not importable, not traced",
    "rda.solver.evaluate_initial not found, not traced",
    "rda.solver.to_normal_form not found, not traced",
    "rda.kernels.quad_adaptive not found, not traced",
    "rda.cli._ETA_FUNCTIONS not found, envelopes not traced",
    "rda.solver.SpectralState.to_physical not found",
    # Only rda.cli validates; rda.config parses.
    "rda.config.validate_scenario not found, not traced",
    # erf and erfc come from the standard library's math module and
    # Gamma(5/4) is a literal, so no rda module binds erf, erfcx or gamma.
    "rda.analysis.erf not found, not traced",
    "rda.kernels.erfcx not found, not traced",
    "rda.kernels.gamma not found, not traced",
}


def test_tracer_targets_resolve():
    code = f"""if True:
        import json, sys
        sys.path[:0] = [{str(ROOT / "perfbench")!r}, {str(ROOT / "src")!r}]
        from tracer import Tracer
        tracer = Tracer()
        tracer.install_transforms()
        import rda.cli
        tracer.install()
        print(json.dumps(tracer.warnings))
        """
    proc = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True)
    warnings = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(warnings) == sorted(STALE_TRACER_TARGETS)
