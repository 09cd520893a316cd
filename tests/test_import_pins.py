"""A command loads only what it runs.

Every package root is lazy (:mod:`repro._lazy`), and each module imports
the subsystems off its common path where it uses them.  These tests pin
that in fresh interpreters, where ``sys.modules`` shows exactly what a
launch paid for: the CLI module alone loads no subsystem, the facade
loads neither the fuzzer nor the service nor the worker fabric nor the
cycle model, a ``run`` answered from the disk cache loads none of
those nor the trace analyses, and neither do Figs 1 and 3 answered from
it.  Laziness must not cost a name: every entry of every package's
``__all__``, and of the facade's, still resolves.
"""

from __future__ import annotations

import importlib
import json
import os
import pathlib
import subprocess
import sys
from typing import List

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: loaded by neither ``import repro.api`` nor a warm ``run``.
OFF_THE_RUN_PATH = (
    "repro.verify",
    "repro.service",
    "repro.experiments.distributed",
    "repro.pipeline.machine",
)


def _lazy_modules() -> List[str]:
    """Every package root, plus the facade, which also names lazily."""
    packages = [
        ".".join(path.parent.relative_to(SRC).parts)
        for path in (SRC / "repro").rglob("__init__.py")
    ]
    return sorted(packages + ["repro.api"])


def _loaded(body: str, tmp_path: pathlib.Path) -> List[str]:
    """The ``repro`` modules a fresh interpreter holds after ``body``."""
    out = tmp_path / "modules.json"
    script = (
        f"{body}\n"
        "import json, sys\n"
        f"with open({str(out)!r}, 'w') as handle:\n"
        "    json.dump(sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'repro'), handle)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_NO_DISK_CACHE", None)
    subprocess.run(
        [sys.executable, "-c", script],
        env=env, check=True, capture_output=True, timeout=300,
    )
    return json.loads(out.read_text())


def _under(modules: List[str], prefix: str) -> List[str]:
    return [m for m in modules if m == prefix or m.startswith(prefix + ".")]


def test_cli_module_loads_no_subsystem(tmp_path):
    loaded = _loaded("import repro.__main__", tmp_path)
    assert loaded == ["repro", "repro.__main__", "repro._lazy"]


def test_help_loads_only_the_event_names(tmp_path):
    body = (
        "from repro.__main__ import main\n"
        "try:\n"
        "    main(['--help'])\n"
        "except SystemExit:\n"
        "    pass\n"
    )
    loaded = _loaded(body, tmp_path)
    assert loaded == [
        "repro", "repro.__main__", "repro._lazy", "repro.observe", "repro.observe.events",
    ]


def test_facade_loads_no_fuzzer_service_fabric_or_cycle_model(tmp_path):
    loaded = _loaded("import repro.api", tmp_path)
    for prefix in OFF_THE_RUN_PATH:
        assert not _under(loaded, prefix), prefix


def test_warm_run_loads_neither_those_nor_the_analyses(tmp_path):
    body = (
        "from repro.__main__ import main\n"
        "assert main(['run', 'li', '--scale', '1500', '--json']) == 0\n"
    )
    cold = _loaded(body, tmp_path)
    assert "repro.pipeline.machine" in cold  # the first run simulated
    warm = _loaded(body, tmp_path)
    for prefix in OFF_THE_RUN_PATH + ("repro.analysis",):
        assert not _under(warm, prefix), prefix


def test_warm_trace_figures_load_no_analysis_or_trace_code(tmp_path):
    body = (
        "from repro.__main__ import main\n"
        "assert main(['figures', '--only', 'fig01', 'fig03', '--scale', '1500',"
        " '--jobs', '1', '--json']) == 0\n"
    )
    cold = _loaded(body, tmp_path)
    assert "repro.analysis.vectorizability" in cold  # the first run analysed
    warm = _loaded(body, tmp_path)
    for prefix in ("repro.analysis", "repro.functional"):
        assert not _under(warm, prefix), prefix


def test_long_lived_processes_load_their_request_path_up_front(tmp_path):
    # The daemon, before it answers anything: every route's modules.
    body = (
        "from repro.service.server import ServiceConfig, SimulationService\n"
        "SimulationService(ServiceConfig(jobs=2)).shutdown()\n"
    )
    loaded = _loaded(body, tmp_path)
    for module in (
        "repro.pipeline.machine",                   # /trace, in-process
        "repro.workloads.spec95",
        "repro.analysis.stride_profile",            # /figure fig01
        "repro.analysis.vectorizability",           # /figure fig03
        "repro.experiments.figures",                # /figure, /headline
        "repro.experiments.distributed.scheduler",  # every cold point
    ):
        assert module in loaded, module
    # A worker peer, by the time it acknowledges warm-up: the cycle model.
    body = (
        "from repro.experiments.distributed.worker import _warm\n"
        "assert 'error' not in _warm({'benchmarks': [], 'scale': 1500})\n"
    )
    assert "repro.pipeline.machine" in _loaded(body, tmp_path)


def test_fault_hook_stays_dormant_until_armed(tmp_path):
    body = (
        "import sys\n"
        "from repro.experiments import runner\n"
        "runner._fire_fault('grid.point', benchmark='li')\n"
        "assert 'repro.verify.faults' not in sys.modules\n"
    )
    assert "repro.verify.faults" not in _loaded(body, tmp_path)
    # Armed through the environment (how specs reach worker peers), the
    # same call loads the injector and fires.
    armed = (
        "import os\n"
        "os.environ['REPRO_FAULTS'] = "
        "'[{\"site\": \"grid.point\", \"action\": \"raise\"}]'\n"
        "from repro.experiments import runner\n"
        "try:\n"
        "    runner._fire_fault('grid.point', benchmark='li')\n"
        "except Exception as exc:\n"
        "    assert type(exc).__name__ == 'InjectedFault', exc\n"
        "else:\n"
        "    raise SystemExit('armed fault did not fire')\n"
    )
    assert "repro.verify.faults" in _loaded(armed, tmp_path)


@pytest.mark.parametrize("package", _lazy_modules())
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert module.__all__, package
    assert len(set(module.__all__)) == len(module.__all__), package
    for name in module.__all__:
        assert getattr(module, name) is not None, f"{package}.{name}"
        assert name in dir(module), f"{package}.{name}"


def test_unknown_names_still_raise():
    import repro

    with pytest.raises(AttributeError):
        repro.no_such_name  # noqa: B018
