"""NaN and infinite option values are refused, like out-of-range ones.

A range check written ``x <= 0`` lets NaN through, and an infinite
duration or rate asks generation for an endless run. Every config that
checks a time, rate or factor therefore refuses NaN and ±infinity with
the exception its range check raises, which the CLI maps to the same
exit code as ``--hours 0``. No case here runs a generation: with such a
value let through, one would never end.
"""

from __future__ import annotations

import math

import pytest

from repro.cli import build_parser, main
from repro.core.checkpoint import CheckpointConfig
from repro.core.streaming import StreamingConfig, reorder_records
from repro.errors import AnalysisError, CheckpointError, SimulationError, WorkloadError
from repro.monitor.logs import save_conn_log, save_dns_log, tail_lines
from repro.simulation.faults import FaultConfig
from repro.workload.scenario import PressureConfig, ScenarioConfig

NON_FINITE = pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
)

#: (config, field, the exception its range check raises, what it names).
CHECKED = [
    (ScenarioConfig, "duration", WorkloadError, "duration"),
    (ScenarioConfig, "warmup", WorkloadError, "warmup"),
    (PressureConfig, "flash_crowd_rate_per_hour", WorkloadError, "flash_crowd_rate_per_hour"),
    (PressureConfig, "flash_crowd_duration_s", WorkloadError, "flash_crowd_duration_s"),
    (PressureConfig, "flash_crowd_intensity", WorkloadError, "flash_crowd_intensity"),
    (PressureConfig, "stub_stale_ttl_s", WorkloadError, "stub_stale_ttl_s"),
    (PressureConfig, "resolver_stale_ttl_s", WorkloadError, "resolver_stale_ttl_s"),
    (PressureConfig, "stub_max_queue_wait_s", WorkloadError, "stub_max_queue_wait_s"),
    (PressureConfig, "resolver_max_queue_wait_s", WorkloadError, "resolver_max_queue_wait_s"),
    (FaultConfig, "outage_rate_per_hour", SimulationError, "outage_rate_per_hour"),
    (FaultConfig, "outage_duration_s", SimulationError, "outage_duration_s"),
    (FaultConfig, "tcp_fallback_penalty_s", SimulationError, "tcp_fallback_penalty_s"),
    (StreamingConfig, "window_s", AnalysisError, "window"),
]


@NON_FINITE
@pytest.mark.parametrize(
    "config, name, error, named", CHECKED, ids=[f"{c.__name__}.{n}" for c, n, _, _ in CHECKED]
)
def test_a_config_refuses_a_non_finite_value(config, name, error, named, value):
    with pytest.raises(error, match=named):
        config(**{name: value})


@NON_FINITE
def test_the_checkpoint_interval_refuses_a_non_finite_value(tmp_path, value):
    with pytest.raises(CheckpointError, match="interval"):
        CheckpointConfig(str(tmp_path / "ck.bin"), value)


@NON_FINITE
def test_the_reorder_window_refuses_a_non_finite_value(value):
    with pytest.raises(AnalysisError, match="reorder window"):
        next(reorder_records(iter(()), value))


@NON_FINITE
def test_the_idle_timeout_refuses_a_non_finite_value(tmp_path, value):
    # stop() ends the tail at once should the value be let through.
    lines = tail_lines(str(tmp_path / "missing.log"), idle_timeout_s=value, stop=lambda: True)
    with pytest.raises(ValueError, match="idle_timeout_s"):
        next(lines)


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_the_parser_refuses_a_bad_idle_timeout(capsys, value):
    argv = ["analyze", "--streaming", "--follow", "--idle-timeout-s", value, "--dns", "d", "--conn", "c"]
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv)
    assert exit_info.value.code == 2
    assert "--idle-timeout-s: must be positive and finite" in capsys.readouterr().err


def test_a_negative_idle_timeout_exits_2_not_with_a_traceback(tmp_path, capsys):
    dns, conn = str(tmp_path / "dns.log"), str(tmp_path / "conn.log")
    save_dns_log(dns, [])
    save_conn_log(conn, [])
    argv = ["analyze", "--streaming", "--follow", "--idle-timeout-s", "-1", "--dns", dns, "--conn", conn]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
