"""Import budget: a process loads only the layers its request runs.

Every check starts a fresh interpreter, because the test process itself
has long since imported everything.  The package surface is lazy
(PEP 562), so ``import repro`` loads no layer, and a seeded explore —
single SA or 8-chain tempering — never touches NumPy or the service,
bench, experiment, analysis and baseline layers.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
QUICK_SPEC = os.path.join(ROOT, "examples", "specs", "motion_quick.json")
TEMPERING_SPEC = os.path.join(
    ROOT, "examples", "specs", "tempering_quick.json"
)

#: Layers a seeded explore must not load.
EXPLORE_FORBIDDEN = (
    "numpy", "repro.service", "repro.bench", "repro.experiments",
    "repro.analysis", "repro.baselines",
)


def modules_after(code: str, tmp_path) -> list:
    """``sys.modules`` of a fresh interpreter after running ``code``."""
    out = tmp_path / "modules.json"
    script = (
        code
        + "\nimport json, sys\n"
        + f"open({str(out)!r}, 'w').write(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


def loaded(modules: list, layer: str) -> list:
    return [m for m in modules if m == layer or m.startswith(layer + ".")]


def test_import_repro_loads_no_numpy(tmp_path):
    modules = modules_after("import repro", tmp_path)
    assert "numpy" not in modules
    assert loaded(modules, "repro") == ["repro", "repro._lazy", "repro.errors"]


def explore_code(spec: str, prelude: str = "") -> str:
    """A ``repro explore --spec SPEC --json`` run that must exit 0."""
    return (
        "import runpy, sys\n"
        + prelude
        + "sys.argv = ['repro', 'explore', '--spec', "
        f"{spec!r}, '--json']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
    )


def assert_explore_loads_only_what_it_runs(spec: str, tmp_path) -> None:
    modules = modules_after(explore_code(spec), tmp_path)
    assert "repro.search.runner" in modules  # the explore did run
    for layer in EXPLORE_FORBIDDEN:
        assert loaded(modules, layer) == [], layer


def test_explore_loads_only_what_it_runs(tmp_path):
    assert_explore_loads_only_what_it_runs(QUICK_SPEC, tmp_path)


def test_tempering_explore_loads_only_what_it_runs(tmp_path):
    """The 8-chain tempering spec on the ``array`` engine kind."""
    assert_explore_loads_only_what_it_runs(TEMPERING_SPEC, tmp_path)


def test_tempering_explore_runs_with_numpy_blocked(tmp_path):
    modules = modules_after(
        explore_code(TEMPERING_SPEC, "sys.modules['numpy'] = None\n"),
        tmp_path,
    )
    assert "repro.sa.population" in modules  # the tempering run did run


def test_bench_registry_is_filled_in_a_fresh_interpreter(tmp_path):
    modules_after(
        "from repro.bench.harness import list_cases\n"
        "assert list_cases(), 'no registered bench cases'\n",
        tmp_path,
    )


def test_seed_derivation_needs_no_numpy(tmp_path):
    """With NumPy blocked, the derived seeds are NumPy's own."""
    modules_after(
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from repro import derive_seeds\n"
        "assert derive_seeds(7, 4) == "
        "[1201125462, 3618983171, 3831650445, 3842200183]\n",
        tmp_path,
    )
