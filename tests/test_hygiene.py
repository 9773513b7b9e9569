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
# is 0.27 s of import. rda loads the compiled modules it calls, QUADPACK,
# pocketfft and scipy.special's ufuncs, without their packages.
HEAVY = ["scipy.stats", "scipy.fft", "scipy.integrate", "scipy.optimize",
         "scipy.sparse", "scipy.linalg", "scipy.special"]
QUADPACK = "scipy.integrate._quadpack"
# Only rda run --jobs N with N > 1 starts a process pool.
POOL = "concurrent.futures"
STEPS = ["import", "list", "classify", "run", "run decay", "verify-identities"]


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """The HEAVY modules, QUADPACK and the pool module that a fresh
    interpreter holds after each step: import rda.cli, rda list, rda
    classify toy, rda run --jobs 1 of two scenarios that between them read
    lower bounds, the drag envelope and the exact error, rda run --jobs 1
    of a small config that fits a decay exponent, rda verify-identities,
    and last, as the control, import scipy.integrate."""
    from test_cli import FAST_CONFIG

    out = tmp_path_factory.mktemp("out")
    (out / "fast.cfg").write_text(FAST_CONFIG, encoding="utf-8")
    src = str(Path(rda.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"""if True:
        import json, sys
        from pathlib import Path
        import rda.cli
        out = Path(sys.argv[1])
        def seen():
            return [name for name in {[*HEAVY, QUADPACK, POOL]!r}
                    if name in sys.modules]
        steps = {{"import": seen()}}
        for step, argv in [
                ("list", ["list"]),
                ("classify", ["classify", "toy"]),
                ("run", ["run", "cas2-equal", "remark51-exact",
                         "--out", str(out / "run"), "--jobs", "1"]),
                ("run decay", ["run", str(out / "fast.cfg"),
                               "--out", str(out / "fast"), "--jobs", "1"]),
                ("verify-identities", ["verify-identities"])]:
            assert rda.cli.main(argv) == 0, step
            steps[step] = seen()
        assert "decay_exponent" in (out / "fast" / "verdicts.csv").read_text()
        import scipy.integrate
        steps["import scipy.integrate"] = seen()
        print(json.dumps(steps))
        """
    proc = subprocess.run([sys.executable, "-c", code, str(out)],
                          env=env, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", HEAVY)
@pytest.mark.parametrize("step", STEPS)
def test_cli_leaves_out_heavy_scipy(loaded, step, module):
    assert module not in loaded[step]


@pytest.mark.parametrize("step", STEPS)
def test_cli_leaves_out_the_process_pool(loaded, step):
    assert POOL not in loaded[step]


def test_verify_identities_loads_quadpack(loaded):
    # Only the suite integrates, so only it loads QUADPACK.
    assert QUADPACK not in loaded["run"]
    assert QUADPACK not in loaded["run decay"]
    assert QUADPACK in loaded["verify-identities"]


def test_control_import_is_seen(loaded):
    # The control for the tests above: a package imported normally is seen,
    # with what it loads.
    assert set(loaded["import scipy.integrate"]) >= {
        "scipy.fft", "scipy.integrate", "scipy.optimize", "scipy.sparse",
        "scipy.linalg", "scipy.special", QUADPACK}


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
def test_loaded_extensions_are_scipys_modules(first):
    # A direct load and a normal import of the package share one module
    # object, in either order, so neither runs a second copy.
    steps = ["import rda.cli; assert rda.cli.main(['verify-identities']) == 0",
             "import scipy.fft, scipy.integrate, scipy.special"]
    code = "\n".join([*(steps if first == "rda" else steps[::-1]),
                      "import sys",
                      "from rda import analysis, kernels, solver",
                      "print(kernels._quadpack() is "
                      "sys.modules['scipy.integrate._quadpack_py']._quadpack, "
                      "solver.pypocketfft is "
                      "sys.modules['scipy.fft._pocketfft.basic'].pfft, "
                      "analysis.erf is scipy.special.erf, "
                      "kernels.erfcx is scipy.special.erfcx, "
                      "kernels.gamma is scipy.special.gamma)"])
    proc = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.stdout.splitlines()[-1] == "True True True True True"


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
              "setattr(kernels, '_quad_conv', h)\nnp.x = 1\nx.y = s.z\n"
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
