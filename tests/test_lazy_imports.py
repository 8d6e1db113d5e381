"""A command loads only the modules its code path runs.

Package ``__init__``s map public names to submodules (``repro._lazy``)
instead of importing them, so importing a package is cheap and a name's
submodule loads on first use.  The command cases run ``deepnote`` in a
fresh interpreter and check which modules it left in ``sys.modules``.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parents[1] / "src"

#: Runs ``deepnote ARGV`` in process (or only imports the CLI when ARGV
#: is null) and prints the sorted module names left in ``sys.modules``.
_PROBE = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
if argv is None:
    import repro.cli
else:
    from repro import cli
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(argv)
    if status != 0:
        sys.exit(f"exit {status}")
print(json.dumps(sorted(sys.modules)))
"""


def _python(cwd, *args):
    """Run ``python ARGS`` on this checkout's sources; return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout


def _loaded(argv, cwd):
    stdout = _python(cwd, "-c", _PROBE, json.dumps(argv))
    return set(json.loads(stdout.splitlines()[-1]))


def _under(modules, *prefixes):
    return sorted(
        name
        for name in modules
        if any(name == prefix or name.startswith(prefix + ".") for prefix in prefixes)
    )


class TestCommandModuleSets:
    def test_importing_the_cli_loads_no_subsystem(self, tmp_path):
        modules = _loaded(None, tmp_path)
        assert _under(modules, "repro") == ["repro", "repro._lazy", "repro.cli"]

    @pytest.mark.parametrize(
        "argv",
        [["predict", "--frequency", "650", "--distance", "0.05"], ["smart"]],
        ids=["predict", "smart"],
    )
    def test_physics_queries_load_no_storage_or_runtime(self, argv, tmp_path):
        modules = _loaded(argv, tmp_path)
        assert "repro.hdd.drive" in modules
        assert _under(modules, "repro.storage", "repro.runtime") == []

    def test_rack_loads_no_kv_store(self, tmp_path):
        # A plain rack report runs no sweep, event loop or RAID group.
        modules = _loaded(["rack"], tmp_path)
        assert "repro.core.fleet" in modules
        assert _under(modules, "repro.storage.kv") == []
        assert _under(
            modules,
            "repro.vecphys",
            "repro.sim.events",
            "repro.storage.raid",
            "repro.storage.block",
        ) == []

    @pytest.mark.parametrize("command", ["figure2", "table1"])
    def test_serial_campaigns_load_no_storage_or_pool(self, command, tmp_path):
        modules = _loaded([command, "--runtime", "0.1"], tmp_path)
        assert f"repro.experiments.{command}" in modules
        assert _under(modules, "repro.storage") == []
        assert "concurrent.futures" not in modules

    def test_table3_loads_no_fleet_or_incident_report(self, tmp_path):
        modules = _loaded(["table3", "--deadline", "30"], tmp_path)
        assert "repro.experiments.table3" in modules
        assert _under(modules, "repro.core.fleet", "repro.obs.incident") == []


def _packages():
    names = ["repro"]
    names.extend(
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    )
    return names


class TestLazyPackages:
    @pytest.mark.parametrize("name", _packages())
    def test_dir_lists_every_public_name_once(self, name):
        package = importlib.import_module(name)
        assert len(set(package.__all__)) == len(package.__all__)
        assert set(package.__all__) <= set(dir(package))

    def test_first_read_binds_the_name_in_the_package(self):
        from repro import sim

        value = sim.VirtualClock
        assert vars(sim)["VirtualClock"] is value
        from repro.sim.clock import VirtualClock

        assert value is VirtualClock

    def test_unknown_name_raises_attribute_error(self):
        from repro import hdd

        with pytest.raises(AttributeError, match="no attribute 'NoSuchName'"):
            hdd.NoSuchName  # noqa: B018

    def test_name_shadowing_its_submodule_stays_the_function(self, tmp_path):
        # Importing the submodule first binds the module onto the package;
        # the package must still export the function of the same name.
        code = (
            "import repro.runtime.fingerprint\n"
            "from repro.runtime import fingerprint\n"
            "assert callable(fingerprint) and not hasattr(fingerprint, '__file__')\n"
        )
        _python(tmp_path, "-c", code)
