import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import tractrix

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
    # loads: they compile no text, and leave every chart's spray, kernel,
    # stage and sub-step to the model that needs it
    code = ("import tractrix.cli\n"
            "from tractrix.charts import compiled\n"
            "from tractrix.config import bundled_names, bundled_scenario\n"
            "for name in bundled_names():\n"
            "    bundled_scenario(name)\n"
            "print(compiled.cache_info().currsize)")
    assert fresh_python(code).strip() == "0"
