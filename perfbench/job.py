"""Run one repro-dns command in this process: the benchmark's job.

    python3 perfbench/job.py PROBE plain|trace -- ARGS...

Calls ``repro.cli.main(ARGS)`` as the ``repro-dns`` entry point does,
then writes to PROBE (JSON) what ``run.py`` cannot see from outside the
process: when the CLI had imported ``repro.cli`` and parsed its
arguments (the end of set-up, on the system-wide monotonic clock), when
``main`` returned, the process's own peak RSS (``VmHWM``; the
``ru_maxrss`` of a child survives its exec and can report the parent's
size), and how long a fixed reference computation took in this process
before the program was imported and again after ``main`` returned. With
``trace``, spans around the program's public functions are recorded as
well (see ``tracer.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

from tracer import Tracer, install, layer_metrics, vmhwm_kb


def reference_s() -> float:
    """Time a fixed piece of interpreter work that owes nothing to the program.

    On a shared host the whole process runs faster or slower with its
    neighbours' load; this reading, taken in the same process, lets
    ``run.py`` put every job at one reference speed (see README.md). The
    cyclic collector is off meanwhile: after ``main`` it would walk the
    program's heap, and the reading would depend on the program.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    records = [(str(index), index * 0.5, index * 7919 % 1000) for index in range(40_000)]
    dict((key, value) for key, value, _ in records)
    records.sort(key=lambda record: record[2])
    json.loads(json.dumps(records[:15_000]))
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def main() -> int:
    reference = reference_s()
    probe_path, mode = sys.argv[1], sys.argv[2]
    cli_args = sys.argv[sys.argv.index("--") + 1 :]
    parsed_at: list[float] = []
    parse_args = argparse.ArgumentParser.parse_args

    def timed_parse_args(self, *args, **kwargs):
        namespace = parse_args(self, *args, **kwargs)
        parsed_at.append(time.monotonic())
        return namespace

    argparse.ArgumentParser.parse_args = timed_parse_args
    import repro.cli

    start = time.perf_counter()
    tracer = install(Tracer()) if mode == "trace" else None
    install_s = time.perf_counter() - start
    start = time.perf_counter()
    status = repro.cli.main(cli_args)
    main_s = time.perf_counter() - start
    main_end_at = time.monotonic()
    vmhwm = vmhwm_kb()
    probe = {
        "status": status,
        "parsed_at": parsed_at[0],
        "main_end_at": main_end_at,
        "vmhwm_kb": vmhwm,
        "reference_s": reference,
        "reference_end_s": reference_s(),
    }
    if tracer is not None:
        probe["install_s"] = install_s
        probe["main_s"] = main_s
        probe["spanned_s"] = tracer.top_level_s
        probe["layers"] = layer_metrics(tracer)
    sys.stdout.flush()
    with open(probe_path, "w", encoding="utf-8") as stream:
        json.dump(probe, stream)
    return status


if __name__ == "__main__":
    sys.exit(main())
