"""The premise of the job-wide collector policy.

``repro-dns`` runs every job with CPython's cyclic collector off
(:func:`repro.workload.generate.collector_paused`). That is safe only
while no code path leaves reference cycles behind in proportion to what
it reads: such garbage would never be freed, and under ``--follow`` it
would grow without bound. Generation is the one producer of cyclic
garbage (its per-house simulator state) and reclaims it itself before
returning.

Each path below runs with the collector off over the same scenario at
two lengths; a full pass afterwards must find the same amount of
cyclic garbage at both. A warm-up run first absorbs one-time garbage
from lazy imports.
"""

import contextlib
import gc
import io

import pytest

from repro.cli import _print_report
from repro.core.checkpoint import CheckpointConfig
from repro.core.context import ContextStudy
from repro.core.parallel import run_streaming_pipeline, run_streaming_summary
from repro.monitor.logs import open_records, save_conn_log, save_dns_log
from repro.workload.generate import collector_paused, generate_trace, generate_trace_with_pressure
from repro.workload.scenario import ScenarioConfig

#: The warm-up scenario, then the two lengths compared.
SCENARIOS = {
    "warm-up": ScenarioConfig(seed=4, houses=1, duration=1800.0),
    "2h": ScenarioConfig(seed=4, houses=8, duration=2 * 3600.0),
    "4h": ScenarioConfig(seed=4, houses=8, duration=4 * 3600.0),
}


def cyclic_garbage(run) -> int:
    """Run *run* with the collector off; count the cyclic garbage it left."""
    gc.collect()
    with collector_paused():
        run()
        return gc.collect()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Per scenario: the trace and its dns/conn logs on disk."""
    made = {}
    for name, config in SCENARIOS.items():
        directory = tmp_path_factory.mktemp(f"premise-{name}")
        trace = generate_trace(config)
        dns_path, conn_path = str(directory / "dns.log"), str(directory / "conn.log")
        save_dns_log(dns_path, trace.dns)
        save_conn_log(conn_path, trace.conns)
        made[name] = (trace, dns_path, conn_path, str(directory / "ck.bin"))
    return made


def _batch(trace, dns_path, conn_path, checkpoint_path):
    with contextlib.redirect_stdout(io.StringIO()):
        _print_report(ContextStudy(trace))


def _streaming_exact(trace, dns_path, conn_path, checkpoint_path):
    run_streaming_pipeline(
        trace.dns,
        trace.conns,
        window_s=3600.0,
        checkpoint=CheckpointConfig(path=checkpoint_path, interval_s=900.0),
    )


def _streaming_sketch(trace, dns_path, conn_path, checkpoint_path):
    run_streaming_summary(
        trace.dns,
        trace.conns,
        window_s=3600.0,
        checkpoint=CheckpointConfig(path=checkpoint_path, interval_s=900.0),
    )


def _tail_dns(trace, dns_path, conn_path, checkpoint_path):
    tailed = list(
        open_records(dns_path, "dns", follow=True, poll_interval_s=0.01, idle_timeout_s=0.05)
    )
    assert len(tailed) == len(trace.dns)


def _tail_conn(trace, dns_path, conn_path, checkpoint_path):
    tailed = list(
        open_records(conn_path, "conn", follow=True, poll_interval_s=0.01, idle_timeout_s=0.05)
    )
    assert len(tailed) == len(trace.conns)


@pytest.mark.parametrize(
    "path",
    [_batch, _streaming_exact, _streaming_sketch, _tail_dns, _tail_conn],
    ids=lambda path: path.__name__.lstrip("_"),
)
def test_no_path_leaves_cyclic_garbage_that_grows_with_input(inputs, path):
    cyclic_garbage(lambda: path(*inputs["warm-up"]))
    left = {name: cyclic_garbage(lambda: path(*inputs[name])) for name in ("2h", "4h")}
    assert left["2h"] == left["4h"], left


@pytest.mark.parametrize(
    "generate, shards",
    [(generate_trace, None), (generate_trace, 3), (generate_trace_with_pressure, None)],
    ids=["serial", "sharded", "with-pressure"],
)
def test_generation_reclaims_its_own_cycles(generate, shards):
    """The simulator's per-house state is cyclic; generation's young pass
    reclaims all of it before returning."""
    assert cyclic_garbage(lambda: generate(SCENARIOS["2h"], shards=shards)) == 0
