"""What a ``repro-dns`` job loads before it runs, checked in fresh interpreters.

The package roots re-export lazily, so ``import repro.cli`` loads only
the modules the CLI imports; numpy is a test-only reference and no
command may import it at run time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

#: Modules no CLI command needs at start-up: numpy, the pcap stack, the
#: JSON log reader, the DNS wire codec and zone files, and the analyses
#: no command calls.
NOT_AT_STARTUP = (
    "numpy",
    "repro.pcap",
    "repro.monitor.pcap_ingest",
    "repro.monitor.json_logs",
    "repro.dns.wire",
    "repro.dns.zonefile",
    "repro.core.compare",
    "repro.core.timeline",
)

#: Runs ``repro.cli.main`` with numpy made unimportable when the first
#: argument is "no-numpy" (a ``None`` entry in ``sys.modules`` makes
#: ``import numpy`` raise ImportError).
_RUN_CLI = """
import sys
if sys.argv[1] == "no-numpy":
    sys.modules["numpy"] = None
import repro.cli
raise SystemExit(repro.cli.main(sys.argv[2:]))
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
    )


def test_import_cli_loads_only_what_the_cli_references():
    result = _python(
        "-c", "import json, sys, repro.cli; print(json.dumps(sorted(sys.modules)))"
    )
    assert result.returncode == 0, result.stderr
    loaded = set(json.loads(result.stdout))
    assert "repro.cli" in loaded
    unexpected = [
        name
        for name in sorted(loaded)
        if any(name == banned or name.startswith(banned + ".") for banned in NOT_AT_STARTUP)
    ]
    assert unexpected == []


def test_reexport_named_like_its_submodule_reads_as_the_function():
    # Reading repro.core.timeline imports the submodule, which binds the
    # module on the package; the lazy lookup then binds the function.
    result = _python(
        "-c",
        "import repro.core as core; first = core.timeline; "
        "print(callable(first), core.timeline is first)",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["True", "True"]


@pytest.fixture(scope="module")
def logs_from_seed_3(tmp_path_factory):
    out = tmp_path_factory.mktemp("seed3")
    result = _python(
        "-m", "repro", "generate", "--houses", "2", "--hours", "1", "--seed", "3",
        "--out", str(out),
    )
    assert result.returncode == 0, result.stderr
    return str(out / "dns.log"), str(out / "conn.log")


@pytest.mark.parametrize("command", ["report", "analyze"])
def test_cli_runs_without_numpy(command, logs_from_seed_3):
    dns_path, conn_path = logs_from_seed_3
    argv = {
        "report": ["report", "--houses", "2", "--hours", "1", "--seed", "3"],
        "analyze": ["analyze", "--dns", dns_path, "--conn", conn_path],
    }[command]
    normal = _python("-c", _RUN_CLI, "with-numpy", *argv)
    without = _python("-c", _RUN_CLI, "no-numpy", *argv)
    assert normal.returncode == 0, normal.stderr
    assert without.returncode == 0, without.stderr
    assert "Table 2" in normal.stdout
    assert without.stdout == normal.stdout
