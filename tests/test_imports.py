"""Import weight of the package root, the linter and the CLI.

``import repro`` resolves its public names lazily (PEP 562), the linter
runs on the standard library alone, and neither the CLI nor the
statistics it runs load scipy.  Each check runs in a fresh
interpreter, because this test process has long since imported
everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]


def _fresh(code: str) -> object:
    """Run *code* in a new interpreter; return the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _modules_after(statement: str) -> list[str]:
    return _fresh(
        f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    )


@pytest.mark.parametrize(
    "statement",
    [
        "import repro",
        "import repro.lint.cli",
        "from repro.dispatch import main\nmain(['lint', '--list-rules'])",
    ],
)
def test_stdlib_only(statement):
    modules = _modules_after(statement)
    assert [m for m in modules if m.split(".")[0] in ("numpy", "scipy")] == []


def _scipy(modules: list[str]) -> list[str]:
    return [m for m in modules if m.split(".")[0] == "scipy"]


def test_cli_avoids_scipy():
    assert _scipy(_modules_after("import repro.cli")) == []


def test_statistics_avoid_scipy():
    """Running every test and interval once loads no scipy either."""
    modules = _modules_after(
        "import repro.cli\n"
        "import numpy as np\n"
        "from repro.core.evaluate import mean_confidence_interval\n"
        "from repro.stats import (f_test_regression, fit_multiple, fit_simple,\n"
        "    jarque_bera, t_test_correlation, t_test_slope)\n"
        "from repro.stats.intervals import critical_t\n"
        "x = np.arange(10.0)\n"
        "y = 2.0 * x + np.sin(x)\n"
        "t_test_slope(fit_simple(x, y))\n"
        "t_test_correlation(x, y)\n"
        "f_test_regression(fit_multiple([x], y))\n"
        "critical_t(0.95, 8)\n"
        "mean_confidence_interval(y)\n"
        "jarque_bera(y)"
    )
    assert _scipy(modules) == []


def test_every_public_name_resolves():
    report = _fresh(
        "import json, repro\n"
        "missing = [n for n in repro.__all__ if getattr(repro, n, None) is None]\n"
        "print(json.dumps({'missing': missing,"
        " 'undir': sorted(set(repro.__all__) - set(dir(repro)))}))"
    )
    assert report == {"missing": [], "undir": []}


def test_star_import_binds_all():
    unbound = _fresh(
        "import json, repro\n"
        "namespace = {}\n"
        "exec('from repro import *', namespace)\n"
        "print(json.dumps([n for n in repro.__all__ if n not in namespace]))"
    )
    assert unbound == []


def test_submodule_and_name_imports():
    names = _fresh(
        "import json\n"
        "from repro import Interferometer, cli, units\n"
        "print(json.dumps([Interferometer.__module__, cli.__name__, units.__name__]))"
    )
    assert names == ["repro.core.interferometer", "repro.cli", "repro.units"]


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="'repro'"):
        repro.NoSuchName  # noqa: B018
    with pytest.raises(ImportError):
        from repro import NoSuchName  # noqa: F401
