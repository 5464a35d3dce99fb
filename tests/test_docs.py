"""Public names resolve, and the demos and README examples run as written.

Each document runs in a fresh working directory, since some write files
there.  The BHM fits they make are shortened: at the default chain length
the two BHM demos alone take about 25 s on two cores, and what is checked
here is that every name a document uses still exists and works, not the
posterior.
"""

import importlib
import pkgutil
import re
import runpy
from pathlib import Path

import pytest

import benchuq
import benchuq.bhm
from benchuq.bhm import McmcConfig

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.fixture
def document_run(monkeypatch, tmp_path):
    fit = benchuq.bhm.fit_bhm

    def short_fit(table, priors=None, config=McmcConfig()):
        small = McmcConfig(total_iterations=200, burn_in=100, thinning=1,
                           chains=2, seed=config.seed)
        return fit(table, priors=priors, config=small)

    monkeypatch.setattr(benchuq.bhm, "fit_bhm", short_fit)
    monkeypatch.chdir(tmp_path)


@pytest.mark.filterwarnings("ignore::benchuq.errors.ConvergenceWarning")
@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, document_run):
    runpy.run_path(str(demo), run_name="__main__")


@pytest.mark.filterwarnings("ignore::benchuq.errors.ConvergenceWarning")
def test_readme_python_blocks_run(document_run):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks
    namespace = {"__name__": "__main__"}
    # Later blocks use names the first one defines, as a reader's session would.
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_every_exported_name_resolves():
    modules = [benchuq] + [
        importlib.import_module(f"benchuq.{info.name}")
        for info in pkgutil.iter_modules(benchuq.__path__)
    ]
    stale = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert stale == []
