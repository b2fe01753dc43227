import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys

import pytest

import tractrix
from tractrix.manifold import FlatModel, HyperbolicModel, SphereModel

MODULES = ["tractrix"] + [f"tractrix.{info.name}"
                          for info in pkgutil.iter_modules(tractrix.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    # a name left in __all__ after its definition goes breaks
    # `from <module> import *`
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing


def fresh_python(code, cwd=None):
    """stdout of `code` run in a fresh interpreter that imports this
    package."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(tractrix.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True)
    return done.stdout


def test_runtime_imports_no_scipy():
    # pytest itself has scipy loaded, so the check runs in a fresh
    # interpreter: the CLI and every bundled scenario, then sys.modules
    code = ("import sys\n"
            "import tractrix.cli\n"
            "from tractrix.config import bundled_names, bundled_scenario\n"
            "for name in bundled_names():\n"
            "    bundled_scenario(name)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert fresh_python(code).strip() == "[]"


def test_shortening_run_imports_no_numpy_ma(tmp_path):
    # numpy.ma is a sizable import that nothing in a run needs; a no-op
    # np.unique in the shortening rounds used to pull it in
    code = ("import sys\n"
            "from tractrix import cli\n"
            "code = cli.main(['gallery', '--only', 'shorten_flat',\n"
            "                 '--out', 'out'])\n"
            "print(code, 'numpy.ma' in sys.modules)")
    assert fresh_python(code, cwd=tmp_path).split()[-2:] == ["0", "False"]


def test_import_compiles_no_text():
    # the setup that the benchmark times is the import and the scenario
    # loads: they compile no text, generate no kernel, stage or sub-step
    # text, and build no CLI parser, and leave each to its first use
    code = ("import tractrix.cli\n"
            "from tractrix import cli, manifold\n"
            "from tractrix.charts import compiled\n"
            "from tractrix.config import bundled_names, bundled_scenario\n"
            "for name in bundled_names():\n"
            "    bundled_scenario(name)\n"
            "print(*(f.cache_info().currsize for f in (\n"
            "    compiled, manifold._kernel, manifold._tractrix,\n"
            "    cli.build_parser)))")
    assert fresh_python(code).split() == ["0"] * 4


@pytest.mark.parametrize("model", [FlatModel, SphereModel, HyperbolicModel],
                         ids=lambda m: m.__name__)
def test_space_forms_keep_one_closed_form_per_quantity(model):
    # a space form computes its distance and log map on rows only
    # (`distance_rows`, `log_rows`), and the scalar calls take one row of
    # them; the per-edge and per-vertex polyline methods are gone
    twins = {"distance", "log_map", "edge_length", "discrete_acceleration"}
    assert not twins & set(vars(model))
    assert not any(hasattr(model, name)
                   for name in ("edge_length", "discrete_acceleration"))


def test_spaceform_writes_its_closed_forms_in_the_jacobi_pair():
    # the profiles take every trigonometric and hyperbolic function from
    # the generalized cosine and sine of K and its inverse
    # (`manifold._jacobi_pair`, `manifold._asn`), the one place that
    # chooses a formula by the sign of K; no branch per sign comes back
    banned = {"sin", "cos", "tan", "sinh", "cosh", "tanh", "arcsin",
              "arcsinh", "asin", "asinh"}
    path = os.path.join(os.path.dirname(tractrix.__file__), "spaceform.py")
    with open(path) as f:
        tree = ast.parse(f.read())
    called = {node.func.attr if isinstance(node.func, ast.Attribute)
              else getattr(node.func, "id", None)
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert not banned & called


def test_every_newton_solve_shares_one_solver():
    # connect, the attachment and the foot solve all step by
    # `manifold.damped_newton`, whose linear solve is Cramer's rule on rows
    # (`manifold.cramer_step`): no module solves by LAPACK or catches its
    # LinAlgError, and only manifold reads the iteration cap
    root = os.path.dirname(tractrix.__file__)
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(root, name)) as f:
            tree = ast.parse(f.read())
        nodes = list(ast.walk(tree))
        lapack = {node.attr for node in nodes
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Attribute)
                  and node.value.attr == "linalg"}
        names = ({node.id for node in nodes if isinstance(node, ast.Name)}
                 | {node.attr for node in nodes
                    if isinstance(node, ast.Attribute)}
                 | {alias.name for node in nodes
                    if isinstance(node, ast.ImportFrom)
                    for alias in node.names})
        assert not {"solve", "det"} & lapack, name
        assert "LinAlgError" not in names, name
        assert name == "manifold.py" or "_SHOOT_MAX_ITER" not in names, name


# what RK4 written by hand looks like: its weights 1, 2, 2, 1 summed, the
# locals h6 and dt6 for the sixth of a step, a half or a sixth of a step
# taken by hand, and the tractrix sub-step's stage list
HAND_WRITTEN_RK4 = re.compile(r"\+ 2(\.0)? \* \w+ \+ 2(\.0)? \* "
                              r"|\b(h|dt)6\b"
                              r"|\b(h|hh|dt) / [26]"
                              r"|\b0\.5 \* h\b"
                              r"|\(\w+, half, ")


def test_rk4_is_written_once_from_its_tableau():
    # the shot step, the tractrix sub-step, its stage times and parallel
    # transport are all written from manifold's RK4 tableau: no code or
    # template text in the modules that step by RK4 writes its weights or
    # its half step out. Docstrings and comments are prose, not read
    root = os.path.dirname(tractrix.__file__)
    for name in ("manifold.py", "tractrix_sim.py"):
        with open(os.path.join(root, name)) as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) \
                    and ast.get_docstring(node) is not None:
                node.body[0].value.value = ""
        assert not HAND_WRITTEN_RK4.search(ast.unparse(tree)), name
