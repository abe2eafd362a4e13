"""The repo benchmark: repro-dns workloads timed from outside the process.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout. It compiles ``src/`` to bytecode,
writes the inputs and reference results of the seed's scenario in a
set-up child process, then runs the workload's ``repro-dns`` command in
a fresh process again and again for ``--seconds``, and checks every
job's output against the reference.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end ones of ``BENCHMARK.json``: for each, the median over
the timed jobs, times put at the reference host speed (see
:attr:`Job.speed`). With ``--trace 1`` the run then repeats the job with
spans around the program's public functions and reports the per-layer
metrics instead. ``README.md`` says what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import spec

JOB_TIMEOUT_S = 120.0
MIN_JOBS = 4
TRACED_JOBS = 5


@dataclass
class Job:
    """One finished job: what run.py measured and what the job reported."""

    elapsed_s: float
    stdout: str
    error: str | None
    probe: dict = field(default_factory=dict)
    written_sha256: str | None = None

    @property
    def wall_s(self) -> float:
        """Spawn to exit, less the launcher's reference computations."""
        return (
            self.elapsed_s
            - self.probe.get("reference_s", 0.0)
            - self.probe.get("reference_end_s", 0.0)
        )

    @property
    def setup_s(self) -> float:
        """Spawn to parsed arguments, less the launcher's own work."""
        launcher_s = self.probe.get("reference_s", 0.0) + self.probe.get("install_s", 0.0)
        return self.probe["parsed_at"] - self.probe["spawned_at"] - launcher_s

    @property
    def teardown_s(self) -> float:
        """``main`` returned to exit, less the launcher's second reference."""
        return (
            self.probe["spawned_at"] + self.elapsed_s - self.probe["main_end_at"]
            - self.probe["reference_end_s"]
        )

    @property
    def speed(self) -> float:
        """How fast the host ran this job relative to the reference host.

        Neighbours' load on a shared host slows a whole process; the
        reference computation timed in the same process slows with it
        (over 40 fresh processes on a 2-vCPU host its time correlated 0.94
        with importing ``repro.cli``), so a time multiplied by this factor
        is the time at the reference speed. The load changes within a job,
        so the factor takes the mean of the readings before the program
        was imported and after ``main`` returned.
        """
        readings_s = self.probe["reference_s"] + self.probe["reference_end_s"]
        return 2 * spec.REFERENCE_S / readings_s

    @property
    def setup_speed(self) -> float:
        """:attr:`speed` for set-up, which directly follows the first reading."""
        return spec.REFERENCE_S / self.probe["reference_s"]


class Bench:
    """One run of one workload: set-up, jobs, checks and metrics."""

    def __init__(self, args: argparse.Namespace, root: Path, work: Path) -> None:
        self.workload = args.workload
        self.seed = spec.scenario_seed(args.workload, args.seed)
        self.hours = args.hours
        self.root = root
        self.work = work
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            PYTHONHASHSEED="0",
            PYTHONDONTWRITEBYTECODE="1",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
        )
        self.reference: dict = {}
        self.jobs: list[Job] = []
        self.written: dict[str, Path] = {}

    def child(self, *args: str) -> subprocess.CompletedProcess:
        """Run a helper script of the benchmark to completion."""
        return subprocess.run(
            [sys.executable, *args], cwd=self.root, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False,
        )

    def setup(self) -> None:
        for command in (
            ("-m", "compileall", "-q", "src", "perfbench"),
            ("perfbench/inputs.py", "setup", self.workload, repr(self.hours),
             str(self.seed), str(self.work)),
        ):
            done = self.child(*command)
            if done.returncode != 0:
                raise SystemExit(f"perfbench: set-up failed:\n{done.stderr[-2000:]}")
        self.reference = self.load_reference()

    def load_reference(self) -> dict:
        with open(self.work / "reference.json", encoding="utf-8") as stream:
            return json.load(stream)

    def run_job(self, traced: bool = False, checkpoint: bool = True) -> Job:
        argv = spec.job_argv(
            self.workload, self.seed, self.hours, str(self.work.relative_to(self.root)),
            checkpoint,
        )
        probe_path = self.work / "probe.json"
        probe_path.unlink(missing_ok=True)
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        command = [sys.executable, "perfbench/job.py", str(probe_path),
                   "trace" if traced else "plain", "--", *argv]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            spawned_at = time.monotonic()
            process = subprocess.Popen(
                command, cwd=self.root, env=self.env, stdout=out, stderr=err
            )
            timer = threading.Timer(JOB_TIMEOUT_S, process.kill)
            timer.start()
            try:
                status = process.wait()
            finally:
                timer.cancel()
                if process.poll() is None:
                    process.kill()
                    process.wait()
            elapsed_s = time.monotonic() - spawned_at
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        job = Job(elapsed_s=elapsed_s, stdout=stdout, error=None)
        if status != 0:
            stderr = err_path.read_text(encoding="utf-8", errors="replace")
            job.error = f"exit status {status}: {stderr[-500:].strip()}"
        elif not probe_path.exists():
            job.error = "the job wrote no probe"
        else:
            job.probe = json.loads(probe_path.read_text(encoding="utf-8"))
            job.probe["spawned_at"] = spawned_at
            job.error = spec.output_error(self.workload, stdout, self.reference)
        if job.error is None and self.workload == "generate-pressure":
            self.keep_written(job)
        self.jobs.append(job)
        return job

    def keep_written(self, job: Job) -> None:
        """Keep one copy of each distinct pair of written logs for the digest check."""
        out_dir = self.work / "out"
        hasher = hashlib.sha256()
        for name in ("dns.rblg", "conn.rblg"):
            hasher.update((out_dir / name).read_bytes())
        job.written_sha256 = hasher.hexdigest()
        if job.written_sha256 not in self.written:
            copy = self.work / f"written-{len(self.written)}"
            shutil.copytree(out_dir, copy)
            self.written[job.written_sha256] = copy

    def check_written_logs(self) -> None:
        """The digest of every distinct pair of written logs must match the reference."""
        if not self.written:
            return
        checked = self.child("perfbench/inputs.py", "digest", *map(str, self.written.values()))
        digests = json.loads(checked.stdout) if checked.returncode == 0 else {}
        expected = self.reference["log_digest"]
        for job in self.jobs:
            if job.error is None:
                digest = digests.get(str(self.written[job.written_sha256]))
                if digest != expected:
                    job.error = f"written logs digest {digest} != {expected}"

    def measure(self, seconds: float) -> list[Job]:
        """Run the job for *seconds* (and at least MIN_JOBS times).

        No warm-up job: every job is a fresh process, as a user's run is,
        and set-up has already compiled the bytecode, imported the program
        and written the inputs, so the page cache is warm.
        """
        timed = []
        start = time.monotonic()
        while len(timed) < MIN_JOBS or time.monotonic() - start < seconds:
            timed.append(self.run_job())
        return timed

    def end_to_end(self, jobs: list[Job]) -> dict[str, float]:
        good = [job for job in jobs if not job.error]
        if not good:
            return {}
        records = self.reference["records"]
        return {
            "wall_s": median(job.wall_s * job.speed for job in good),
            "records_per_s": median(
                records / ((job.wall_s - job.setup_s) * job.speed) for job in good
            ),
            "peak_rss_mb": median(job.probe["vmhwm_kb"] / 1024 for job in good),
            "setup_s": median(job.setup_s * job.setup_speed for job in good),
        }

    def traced(self, untraced: list[Job]) -> dict[str, float]:
        """Per-layer metrics from traced repeats of the job.

        Traced jobs alternate with untraced ones, and every time is put at
        the reference speed, so the two compare despite the host's drift.
        """
        reference_stdout = self.jobs[0].stdout
        base = list(untraced)
        traced, plain = [], []
        for _ in range(TRACED_JOBS):
            base.append(self.run_job())
            traced.append(self.run_job(traced=True))
            if self.workload == "stream-rblg":
                plain.append(self.run_job(traced=True, checkpoint=False))
        for job in traced + plain:
            if job.error is None and job.stdout != reference_stdout:
                job.error = "traced output differs from the untraced job's"
        good = [job for job in traced if not job.error]
        if not good:
            return {}
        traced_wall_s = median(job.wall_s * job.speed for job in good)
        base_wall_s = median(job.wall_s * job.speed for job in base if not job.error)
        metrics = {
            name: median(at_reference_speed(name, job.probe["layers"][name], job) for job in good)
            for name in good[0].probe["layers"]
        }
        metrics.update({
            "cli.setup_s": median(job.setup_s * job.setup_speed for job in good),
            "cli.glue_s": median(
                (job.probe["main_s"] - job.probe["spanned_s"]) * job.speed for job in good
            ),
            "cli.teardown_s": median(job.teardown_s * job.speed for job in good),
            "trace.wall_s": traced_wall_s,
            "trace.overhead_share": (traced_wall_s - base_wall_s) / base_wall_s,
            "trace.attributed_share": median(
                (job.setup_s + job.probe["spanned_s"] + job.teardown_s) * job.speed / base_wall_s
                for job in good
            ),
            "trace.covered_share": median(covered_share(job) for job in good),
            "checkpoint.overhead_s": 0.0,
            "checkpoint.resume_s": 0.0,
        })
        plain = [job for job in plain if not job.error]
        if plain:
            metrics["checkpoint.overhead_s"] = traced_wall_s - median(
                job.wall_s * job.speed for job in plain
            )
            probe = self.child("perfbench/inputs.py", "resume", repr(self.hours), str(self.work))
            resumed = json.loads(probe.stdout) if probe.returncode == 0 else {"error": probe.stderr}
            if resumed["error"]:
                self.jobs.append(Job(0.0, "", f"resume probe: {resumed['error']}"))
            else:
                metrics["checkpoint.resume_s"] = resumed["resume_s"]
        return metrics


def at_reference_speed(name: str, value: float, job: Job) -> float:
    """A per-layer metric of *job* at the reference speed (times and rates only)."""
    if name.endswith("_per_s"):
        return value / job.speed
    if name.endswith("_s"):
        return value * job.speed
    return value


def covered_share(job: Job) -> float:
    """Share of a traced job's own time that its parts account for.

    Unlike ``trace.attributed_share``, which divides by the untraced wall,
    this stays inside the traced job, so the wrappers' own cost cannot
    make up for work no span covers: it is 1 - ``cli.glue_s`` / (set-up
    + ``main`` + teardown).
    """
    glue_s = job.probe["main_s"] - job.probe["spanned_s"]
    return 1.0 - glue_s / (job.setup_s + job.probe["main_s"] + job.teardown_s)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--hours", type=float, default=spec.HOURS,
        help="simulated span of the scenario (tests use a short one)",
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: {root} is not the root of a repro checkout", file=sys.stderr)
        return 2
    benchmark = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    work = root / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(args, root, work)
        bench.setup()
        untraced = bench.measure(args.seconds)
        metrics = bench.traced(untraced) if args.trace else bench.end_to_end(untraced)
        bench.check_written_logs()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [job for job in bench.jobs if job.error]
    metrics["failed_share"] = len(failed) / len(bench.jobs)
    probed = [job for job in untraced if job.probe]
    readings_ms = [
        median(1000 * job.probe[key] for job in probed) if probed else 0.0
        for key in ("reference_s", "reference_end_s")
    ]
    print(
        f"host: nproc {os.cpu_count()}, affinity {len(os.sched_getaffinity(0))}, "
        f"python {platform.python_version()}, median in-job reference "
        f"{readings_ms[0]:.1f} ms before and {readings_ms[1]:.1f} ms after the program"
    )
    print(
        f"{args.workload} scenario seed {bench.seed}: {spec.HOUSES} houses x {args.hours} h, "
        f"{bench.reference.get('records')} records; raw wall_s "
        f"{[round(job.wall_s, 3) for job in probed]}, host speed "
        f"{[round(job.speed, 3) for job in probed]}"
    )
    for job in failed[:5]:
        print(f"failed job: {job.error}")
    result = {
        "correct": not failed,
        "attempted": len(bench.jobs),
        "failed": len(failed),
        # A failed run may lack metrics; a good one must report every one.
        "metrics": {
            item["name"]: {
                "value": metrics.get(item["name"], 0.0) if failed else metrics[item["name"]],
                "unit": item["unit"],
            }
            for item in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
