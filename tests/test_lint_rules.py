"""Unit tests for the repro-lint engine and each built-in rule."""

import textwrap
from pathlib import Path

import pytest

from repro.lint import LintEngine, Severity, all_program_rules, all_rules, get_rule
from repro.lint.engine import LintConfigError, module_name_for


def lint(source, module="repro.example", rules=None):
    engine = LintEngine(rules=[get_rule(r) for r in rules] if rules else None)
    return engine.lint_source(textwrap.dedent(source), Path("example.py"), module=module)


def rule_ids(findings):
    return [finding.rule_id for finding in findings]


class TestEngine:
    def test_clean_source_has_no_findings(self):
        assert lint("x = 1\n") == []

    def test_syntax_error_raises_config_error(self):
        with pytest.raises(LintConfigError):
            lint("def broken(:\n")

    def test_findings_carry_location_and_line_text(self):
        (finding,) = lint("import random\nrandom.random()\n", rules=["DET001"])
        assert finding.line == 2
        assert finding.line_text == "random.random()"
        assert "example.py:2:" in finding.render()

    def test_inline_suppression_by_rule(self):
        assert lint(
            "import random\n"
            "random.random()  # repro-lint: disable=DET001 calibration shim, rng injected upstream\n"
        ) == []

    def test_inline_suppression_all(self):
        assert lint(
            "import random\n"
            "random.random()  # repro-lint: disable=all scratch cell kept for doc parity\n"
        ) == []

    def test_suppression_of_other_rule_does_not_apply(self):
        findings = lint(
            "import random\n"
            "random.random()  # repro-lint: disable=EXC001 wrong rule on purpose\n"
        )
        assert rule_ids(findings) == ["DET001"]

    def test_unjustified_suppression_does_not_count(self):
        # A bare pragma is a mute button, not a decision — the finding
        # is still reported, mirroring the baseline's justified-entry
        # contract.
        findings = lint("import random\nrandom.random()  # repro-lint: disable=DET001\n")
        assert rule_ids(findings) == ["DET001"]

    def test_suppressed_findings_are_retained_for_accounting(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "import random\n"
            "random.random()  # repro-lint: disable=DET001 rng injected upstream\n"
        )
        run = LintEngine().lint_paths([target])
        assert run.findings == ()
        assert rule_ids(run.suppressed) == ["DET001"]

    def test_unknown_rule_selection_fails_loudly(self):
        with pytest.raises(KeyError):
            all_rules(select=["NOPE999"])

    def test_module_name_for_repro_file(self):
        path = Path(__file__).parent.parent / "src" / "repro" / "dns" / "cache.py"
        assert module_name_for(path) == "repro.dns.cache"

    def test_severity_override(self):
        engine = LintEngine(severity_overrides={"DET001": Severity.WARNING})
        (finding,) = engine.lint_source("import random\nrandom.random()\n", Path("x.py"))
        assert finding.severity is Severity.WARNING


class TestDET001SeededRandomness:
    def test_module_level_calls_flagged(self):
        for call in ("random.random()", "random.randint(1, 6)", "random.choice([1])",
                     "random.shuffle(xs)", "random.seed(0)"):
            findings = lint(f"import random\nxs = [1]\n{call}\n", rules=["DET001"])
            assert rule_ids(findings) == ["DET001"], call

    def test_aliased_import_flagged(self):
        findings = lint("import random as rnd\nrnd.uniform(0, 1)\n", rules=["DET001"])
        assert rule_ids(findings) == ["DET001"]

    def test_from_import_flagged(self):
        findings = lint("from random import choice\nchoice([1, 2])\n", rules=["DET001"])
        # Both the import binding and the call are reported.
        assert rule_ids(findings) == ["DET001", "DET001"]

    def test_numpy_global_generator_flagged(self):
        findings = lint("import numpy as np\nnp.random.rand(3)\n", rules=["DET001"])
        assert rule_ids(findings) == ["DET001"]

    def test_injected_generator_allowed(self):
        clean = """
            import random

            def draw(rng: random.Random) -> float:
                return rng.random()

            seeded = random.Random(42)
        """
        assert lint(clean, rules=["DET001"]) == []

    def test_unrelated_random_attribute_allowed(self):
        # a local object that happens to be called ``random``
        assert lint("obj.random.choice([1])\n", rules=["DET001"]) == []


class TestDET002WallClock:
    def test_wall_clock_flagged_in_simulated_packages(self):
        for module in ("repro.simulation.engine", "repro.workload.apps", "repro.core.stats"):
            findings = lint("import time\nnow = time.time()\n", module=module, rules=["DET002"])
            assert rule_ids(findings) == ["DET002"], module

    def test_monotonic_and_from_import_flagged(self):
        findings = lint(
            "from time import monotonic\nx = monotonic()\n",
            module="repro.simulation.engine",
            rules=["DET002"],
        )
        assert rule_ids(findings) == ["DET002"]

    def test_datetime_now_flagged(self):
        findings = lint(
            "from datetime import datetime\nstamp = datetime.now()\n",
            module="repro.core.context",
            rules=["DET002"],
        )
        assert rule_ids(findings) == ["DET002"]

    def test_wall_clock_allowed_outside_simulated_packages(self):
        # benchmarks and the report layer may time real execution
        assert lint("import time\nt = time.time()\n", module="repro.report.figures", rules=["DET002"]) == []

    def test_simulated_now_parameter_allowed(self):
        assert lint("def f(now: float) -> float:\n    return now + 1.0\n",
                    module="repro.simulation.engine", rules=["DET002"]) == []


class TestUNIT001TimeUnits:
    def test_unsuffixed_parameter_flagged(self):
        findings = lint("def wait(delay: float) -> None:\n    pass\n", rules=["UNIT001"])
        assert rule_ids(findings) == ["UNIT001"]

    def test_unsuffixed_attribute_flagged(self):
        findings = lint("class C:\n    timeout: float = 1.0\n", rules=["UNIT001"])
        assert rule_ids(findings) == ["UNIT001"]

    def test_qualified_names_still_flagged(self):
        findings = lint("def f(delay_min: float, max_ttl: float) -> None:\n    pass\n", rules=["UNIT001"])
        assert len(findings) == 2

    def test_suffixed_names_allowed(self):
        clean = """
            def wait(delay_s: float, rtt_ms: float) -> None:
                pass

            class C:
                duration_s: float = 0.0
                ttl_s: int = 300
        """
        assert lint(clean, rules=["UNIT001"]) == []

    def test_derived_quantities_allowed(self):
        clean = """
            class C:
                ttl_violator_fraction: float = 0.02
                click_delay_sigma: float = 1.1
                lookup_delay_ks: float = 0.0
        """
        assert lint(clean, rules=["UNIT001"]) == []

    def test_mixed_unit_arithmetic_flagged(self):
        findings = lint("total = delay_ms + gap_s\n", rules=["UNIT001"])
        assert rule_ids(findings) == ["UNIT001"]
        assert "mixes time units" in findings[0].message

    def test_same_unit_arithmetic_allowed(self):
        assert lint("total_s = delay_s + gap_s\n", rules=["UNIT001"]) == []

    def test_multiplicative_conversion_allowed(self):
        assert lint("delay_ms = delay_s * 1000.0\n", rules=["UNIT001"]) == []

    def test_record_type_ns_is_not_a_unit(self):
        # RRType.NS must not parse as "nanoseconds"
        assert lint("ok = rtype != RRType.NS\n", rules=["UNIT001", "FLT001"]) == []


class TestFLT001FloatTimeEquality:
    def test_time_equality_flagged(self):
        findings = lint("blocked = gap == 0.1\n", rules=["FLT001"])
        assert rule_ids(findings) == ["FLT001"]

    def test_suffixed_time_inequality_flagged(self):
        findings = lint("done = elapsed_s != deadline\n", rules=["FLT001"])
        assert rule_ids(findings) == ["FLT001"]

    def test_ordering_comparisons_allowed(self):
        assert lint("late = gap > 0.1\nearly = delay_s <= cutoff\n", rules=["FLT001"]) == []

    def test_string_comparison_not_flagged(self):
        assert lint('missing = rtt_text == "-"\n', rules=["FLT001"]) == []

    def test_non_time_equality_allowed(self):
        assert lint("same = count == 3\n", rules=["FLT001"]) == []


class TestEXC001ExceptionDiscipline:
    def test_bare_except_flagged(self):
        findings = lint("try:\n    x = 1\nexcept:\n    pass\n", rules=["EXC001"])
        assert rule_ids(findings) == ["EXC001"]

    def test_swallowing_broad_except_flagged(self):
        findings = lint("try:\n    x = 1\nexcept Exception:\n    pass\n", rules=["EXC001"])
        assert "swallows" in findings[0].message

    def test_broad_except_with_reraise_still_flagged_as_broad(self):
        source = """
            try:
                x = 1
            except Exception as exc:
                raise ValueError(str(exc)) from exc
        """
        findings = lint(source, rules=["EXC001"])
        assert "broad" in findings[0].message

    def test_concrete_except_allowed(self):
        source = """
            from repro.errors import DnsError
            try:
                x = 1
            except (DnsError, ValueError):
                x = 2
        """
        assert lint(source, rules=["EXC001"]) == []

    def test_generic_raise_flagged(self):
        findings = lint('raise RuntimeError("boom")\n', rules=["EXC001"])
        assert rule_ids(findings) == ["EXC001"]

    def test_typed_and_bare_reraise_allowed(self):
        source = """
            from repro.errors import WorkloadError
            def f(x: int) -> None:
                if x < 0:
                    raise WorkloadError("bad")
                if x == 0:
                    raise ValueError("zero")
                try:
                    g()
                except KeyError:
                    raise
        """
        assert lint(source, rules=["EXC001"]) == []

    def test_broad_contextlib_suppress_flagged(self):
        source = """
            import contextlib
            with contextlib.suppress(Exception):
                work()
        """
        findings = lint(source, rules=["EXC001"])
        assert rule_ids(findings) == ["EXC001"]
        assert "suppress" in findings[0].message

    def test_broad_suppress_from_import_flagged(self):
        source = """
            from contextlib import suppress
            with suppress(BaseException):
                work()
        """
        findings = lint(source, rules=["EXC001"])
        assert rule_ids(findings) == ["EXC001"]

    def test_concrete_suppress_allowed(self):
        source = """
            import contextlib
            with contextlib.suppress(FileNotFoundError, KeyError):
                work()
        """
        assert lint(source, rules=["EXC001"]) == []


class TestDET003UnseededGenerators:
    def test_unseeded_random_flagged_in_simulated_package(self):
        source = """
            import random
            rng = random.Random()
        """
        findings = lint(source, module="repro.simulation.faults", rules=["DET003"])
        assert rule_ids(findings) == ["DET003"]

    def test_system_random_flagged_even_outside_faults(self):
        source = """
            import random
            rng = random.SystemRandom()
        """
        findings = lint(source, module="repro.core.pairing", rules=["DET003"])
        assert rule_ids(findings) == ["DET003"]

    def test_seeded_random_allowed(self):
        source = """
            import random
            from repro.simulation.random import derive_seed
            rng = random.Random(derive_seed(1, "faults"))
        """
        assert lint(source, module="repro.simulation.faults", rules=["DET003"]) == []

    def test_from_import_unseeded_flagged(self):
        source = """
            from random import Random
            rng = Random()
        """
        findings = lint(source, module="repro.workload.generate", rules=["DET003"])
        assert rule_ids(findings) == ["DET003"]

    def test_unseeded_allowed_outside_simulated_packages(self):
        source = """
            import random
            rng = random.Random()
        """
        assert lint(source, module="repro.report.tables", rules=["DET003"]) == []


class TestDOC001PublicDocs:
    def test_missing_docstring_and_annotation_flagged(self):
        findings = lint("def f(x):\n    return x\n", module="repro.core.stats", rules=["DOC001"])
        assert rule_ids(findings) == ["DOC001", "DOC001"]

    def test_documented_annotated_function_allowed(self):
        source = '''
            def f(x: int) -> int:
                """Doubles *x*."""
                return 2 * x
        '''
        assert lint(source, module="repro.dns.cache", rules=["DOC001"]) == []

    def test_private_and_dunder_skipped(self):
        source = """
            class C:
                def __init__(self):
                    self.x = 1

                def _helper(self):
                    return self.x
        """
        assert lint(source, module="repro.core.stats", rules=["DOC001"]) == []

    def test_nested_functions_skipped(self):
        source = '''
            def outer() -> int:
                """Documented."""
                def inner(x):
                    return x
                return inner(1)
        '''
        assert lint(source, module="repro.core.stats", rules=["DOC001"]) == []

    def test_rule_scoped_to_core_and_dns(self):
        assert lint("def f(x):\n    return x\n", module="repro.workload.apps", rules=["DOC001"]) == []


def lint_program(tmp_path, files, select=None):
    """Write fixture *files* as a package and run the whole-program pass.

    Per-file rules are disabled so the fixtures only need to satisfy the
    program rules under test; returns the :class:`LintRun`.
    """
    pkg = tmp_path / "fixturepkg"
    pkg.mkdir(exist_ok=True)
    (pkg / "__init__.py").write_text("")
    for name, source in files.items():
        (pkg / name).write_text(textwrap.dedent(source))
    engine = LintEngine(rules=[], program_rules=all_program_rules(select=select))
    return engine.lint_paths([pkg], whole_program=True)


#: The PR 5 review bug: a process-wide fan-out slot read by fork
#: workers and rebound by the dispatcher — a nested dispatch clobbers
#: the slot under the outer pool's feet.
FANOUT_CLOBBER = """
    _FANOUT = None

    def _worker(index):
        task, configs = _FANOUT
        return task(configs[index])

    def run_all(pool, task, configs):
        global _FANOUT
        _FANOUT = (task, configs)
        handles = [pool.apply_async(_worker, (i,)) for i in range(len(configs))]
        return [h.get() for h in handles]
"""

#: The PR 5 review bug: an interning memo that grows per lookup and is
#: never cleared, leaking across scenarios in long-lived drivers.
UNBOUNDED_MEMO = """
    _MEMO = {}

    def intern_name(name):
        if name not in _MEMO:
            _MEMO[name] = name.lower()
        return _MEMO[name]
"""

#: The PR 5 heap-compaction bug: ``_compact`` rebinds ``self._queue``
#: to a fresh list while ``run`` still drains the old one through a
#: local alias.
QUEUE_ALIAS_REBIND = """
    class EventQueue:
        def __init__(self):
            self._queue = []

        def push(self, entry):
            self._queue.append(entry)

        def _compact(self):
            self._queue = [entry for entry in self._queue if entry is not None]

        def run(self):
            queue = self._queue
            while queue:
                queue.pop()
"""


class TestSHARED001ForkSharedState:
    def test_fanout_clobber_detected(self, tmp_path):
        run = lint_program(tmp_path, {"pool.py": FANOUT_CLOBBER}, select=["SHARED001"])
        (finding,) = run.findings
        assert finding.rule_id == "SHARED001"
        assert "_FANOUT" in finding.message
        assert finding.line_text == "_FANOUT = None"

    def test_unreachable_state_not_flagged(self, tmp_path):
        # Same slot and mutation, but nothing hands _worker to a pool,
        # so no fork boundary is crossed.
        source = FANOUT_CLOBBER.replace("pool.apply_async(_worker, (i,))", "_worker(i)")
        run = lint_program(tmp_path, {"pool.py": source}, select=["SHARED001"])
        assert run.findings == ()

    def test_fork_shared_pragma_exempts(self, tmp_path):
        source = FANOUT_CLOBBER.replace(
            "_FANOUT = None",
            "_FANOUT = None  # repro-lint: fork-shared(cleared in the dispatcher's finally)",
        )
        run = lint_program(tmp_path, {"pool.py": source}, select=["SHARED001"])
        assert run.findings == ()

    def test_empty_pragma_justification_still_flagged(self, tmp_path):
        source = FANOUT_CLOBBER.replace(
            "_FANOUT = None", "_FANOUT = None  # repro-lint: fork-shared()"
        )
        run = lint_program(tmp_path, {"pool.py": source}, select=["SHARED001"])
        (finding,) = run.findings
        assert "justification" in finding.message

    def test_cross_module_reachability(self, tmp_path):
        # The worker lives in one module, the dispatcher in another; the
        # call graph still links the pool dispatch to the slot read.
        worker = """
            _FANOUT = None

            def work(index):
                task, configs = _FANOUT
                return task(configs[index])

            def rebind(pair):
                global _FANOUT
                _FANOUT = pair
        """
        driver = """
            from fixturepkg.worker import rebind, work

            def dispatch(pool, task, configs):
                rebind((task, configs))
                return [pool.apply_async(work, (i,)) for i in range(len(configs))]
        """
        run = lint_program(
            tmp_path, {"worker.py": worker, "driver.py": driver}, select=["SHARED001"]
        )
        (finding,) = run.findings
        assert "_FANOUT" in finding.message


    def test_method_of_a_local_receiver_is_a_fork_root(self, tmp_path):
        # The dispatched callable is a bound method of a local whose type
        # the model does not infer; the name-matched fallback roots it.
        source = """
            from repro.core.parallel import run_scenarios

            _MEMO = {}

            class Generator:
                def run_shard(self, indices):
                    for index in indices:
                        _MEMO[index] = index * index
                    return len(indices)

            def generate(partitions, workers):
                generator = Generator()
                return run_scenarios(partitions, generator.run_shard, workers=workers)
        """
        run = lint_program(tmp_path, {"gen.py": source}, select=["SHARED001"])
        (finding,) = run.findings
        assert "_MEMO" in finding.message and "run_shard()" in finding.message


class TestSHARED002UnboundedState:
    def test_unbounded_memo_detected(self, tmp_path):
        run = lint_program(tmp_path, {"memo.py": UNBOUNDED_MEMO}, select=["SHARED002"])
        (finding,) = run.findings
        assert finding.rule_id == "SHARED002"
        assert "_MEMO" in finding.message

    def test_cap_and_reset_memo_allowed(self, tmp_path):
        source = UNBOUNDED_MEMO.replace(
            "if name not in _MEMO:",
            "if len(_MEMO) > 4096:\n            _MEMO.clear()\n        if name not in _MEMO:",
        )
        run = lint_program(tmp_path, {"memo.py": source}, select=["SHARED002"])
        assert run.findings == ()

    def test_read_only_table_allowed(self, tmp_path):
        source = """
            _TABLE = {"a": 1}

            def lookup(name):
                return _TABLE[name]
        """
        run = lint_program(tmp_path, {"table.py": source}, select=["SHARED002"])
        assert run.findings == ()

    def test_fork_shared_pragma_exempts(self, tmp_path):
        source = UNBOUNDED_MEMO.replace(
            "_MEMO = {}",
            "_MEMO = {}  # repro-lint: fork-shared(bounded by the fixed name universe)",
        )
        run = lint_program(tmp_path, {"memo.py": source}, select=["SHARED002"])
        assert run.findings == ()


class TestALIAS001AttributeRebinding:
    def test_queue_alias_rebind_detected(self, tmp_path):
        run = lint_program(tmp_path, {"queue.py": QUEUE_ALIAS_REBIND}, select=["ALIAS001"])
        (finding,) = run.findings
        assert finding.rule_id == "ALIAS001"
        assert "_queue" in finding.message
        assert "run" in finding.message  # names the method holding the alias
        assert finding.line_text.startswith("self._queue = [entry")

    def test_in_place_compaction_allowed(self, tmp_path):
        source = QUEUE_ALIAS_REBIND.replace(
            "self._queue = [entry for entry in self._queue if entry is not None]",
            "self._queue[:] = [entry for entry in self._queue if entry is not None]",
        )
        run = lint_program(tmp_path, {"queue.py": source}, select=["ALIAS001"])
        assert run.findings == ()

    def test_rebind_without_alias_allowed(self, tmp_path):
        source = """
            class Buffer:
                def __init__(self):
                    self._items = []

                def reset(self):
                    self._items = []

                def add(self, item):
                    self._items.append(item)
        """
        run = lint_program(tmp_path, {"buffer.py": source}, select=["ALIAS001"])
        assert run.findings == ()

    def test_iteration_counts_as_aliasing(self, tmp_path):
        source = """
            class Timeline:
                def __init__(self):
                    self._events = []

                def trim(self):
                    self._events = [e for e in self._events if e]

                def replay(self):
                    for event in self._events:
                        event()
        """
        run = lint_program(tmp_path, {"timeline.py": source}, select=["ALIAS001"])
        (finding,) = run.findings
        assert "_events" in finding.message

    def test_init_rebind_allowed(self, tmp_path):
        source = """
            class Store:
                def __init__(self):
                    self._rows = []

                def scan(self):
                    for row in self._rows:
                        yield row
        """
        run = lint_program(tmp_path, {"store.py": source}, select=["ALIAS001"])
        assert run.findings == ()


class TestUNIT002UnitFlow:
    def test_ms_return_bound_to_s_name(self, tmp_path):
        source = """
            def lookup_delay_ms(count):
                return 10.0 + count

            def drive():
                delay_s = lookup_delay_ms(3)
                return delay_s
        """
        run = lint_program(tmp_path, {"timing.py": source}, select=["UNIT002"])
        (finding,) = run.findings
        assert finding.rule_id == "UNIT002"
        assert "milliseconds" in finding.message

    def test_ms_argument_into_s_parameter(self, tmp_path):
        timing = """
            def pause(pause_s):
                return pause_s

            def lookup_delay_ms(count):
                return 10.0 + count
        """
        driver = """
            from fixturepkg.timing import lookup_delay_ms, pause

            def drive():
                wait_ms = lookup_delay_ms(3)
                return pause(wait_ms)
        """
        run = lint_program(
            tmp_path, {"timing.py": timing, "driver.py": driver}, select=["UNIT002"]
        )
        (finding,) = run.findings
        assert "pause_s" in finding.message or "_s" in finding.message

    def test_additive_mixing_through_dataflow(self, tmp_path):
        # Neither operand carries a suffix at the mixing site — only the
        # dataflow knows 'wait' holds milliseconds and 'gap' seconds.
        source = """
            def drive(delay_ms, interval_s):
                wait = delay_ms
                gap = interval_s
                return wait + gap
        """
        run = lint_program(tmp_path, {"mix.py": source}, select=["UNIT002"])
        (finding,) = run.findings
        assert "mixes" in finding.message or "mix" in finding.message

    def test_consistent_units_clean(self, tmp_path):
        source = """
            def lookup_delay_ms(count):
                return 10.0 + count

            def drive():
                delay_ms = lookup_delay_ms(3)
                total_ms = delay_ms + 5.0
                return total_ms
        """
        run = lint_program(tmp_path, {"clean.py": source}, select=["UNIT002"])
        assert run.findings == ()

    def test_multiplicative_conversion_clears_unit(self, tmp_path):
        source = """
            def drive(delay_ms):
                delay_s = delay_ms / 1000.0
                return delay_s
        """
        run = lint_program(tmp_path, {"convert.py": source}, select=["UNIT002"])
        assert run.findings == ()

    def test_inline_suppression_applies_to_program_findings(self, tmp_path):
        source = """
            def lookup_delay_ms(count):
                return 10.0 + count

            def drive():
                delay_s = lookup_delay_ms(3)  # repro-lint: disable=UNIT002 legacy field, tracked in #42
                return delay_s
        """
        run = lint_program(tmp_path, {"timing.py": source}, select=["UNIT002"])
        assert run.findings == ()
        assert [f.rule_id for f in run.suppressed] == ["UNIT002"]


class TestGoldenPR5Reproductions:
    """All three PR 5 review bugs in one package, one whole-program run."""

    def test_all_three_detected_together(self, tmp_path):
        run = lint_program(
            tmp_path,
            {
                "pool.py": FANOUT_CLOBBER,
                "memo.py": UNBOUNDED_MEMO,
                "queue.py": QUEUE_ALIAS_REBIND,
            },
        )
        assert sorted(f.rule_id for f in run.findings) == [
            "ALIAS001",
            "SHARED001",
            "SHARED002",
        ]


class TestCKPT001CheckpointAtomicity:
    def test_write_mode_open_on_checkpoint_path_flagged(self):
        findings = lint(
            'def save(checkpoint_path):\n'
            '    with open(checkpoint_path, "w") as stream:\n'
            '        stream.write("state")\n',
            rules=["CKPT001"],
        )
        assert rule_ids(findings) == ["CKPT001"]
        assert "atomic_write_bytes" in findings[0].message

    def test_binary_and_append_modes_flagged(self):
        findings = lint(
            'def save(ckpt):\n'
            '    open(ckpt, "wb").write(b"x")\n'
            '    open(ckpt, mode="ab").write(b"y")\n',
            rules=["CKPT001"],
        )
        assert rule_ids(findings) == ["CKPT001", "CKPT001"]

    def test_read_mode_allowed(self):
        assert lint(
            'def load(checkpoint_path):\n'
            '    with open(checkpoint_path, "rb") as stream:\n'
            '        return stream.read()\n',
            rules=["CKPT001"],
        ) == []

    def test_non_checkpoint_path_allowed(self):
        assert lint(
            'def save(log_path):\n'
            '    with open(log_path, "w") as stream:\n'
            '        stream.write("line")\n',
            rules=["CKPT001"],
        ) == []

    def test_checkpoint_module_itself_exempt(self):
        engine = LintEngine(rules=[get_rule("CKPT001")])
        findings = engine.lint_source(
            'def atomic(path_checkpoint):\n'
            '    with open(path_checkpoint + ".tmp", "wb") as stream:\n'
            '        stream.write(b"payload")\n',
            Path("src/repro/core/checkpoint.py"),
            module="repro.core.checkpoint",
        )
        assert findings == []


class TestCKPT002BinlogAtomicity:
    def test_write_mode_open_on_binlog_path_flagged(self):
        findings = lint(
            'def save(binlog_path):\n'
            '    with open(binlog_path, "wb") as stream:\n'
            '        stream.write(b"RBLG")\n',
            rules=["CKPT002"],
        )
        assert rule_ids(findings) == ["CKPT002"]
        assert "atomic_write_bytes" in findings[0].message

    def test_rblg_literal_flagged(self):
        findings = lint(
            'def save(out_dir):\n'
            '    open(out_dir / "dns.rblg", "wb").write(b"RBLG")\n',
            rules=["CKPT002"],
        )
        assert rule_ids(findings) == ["CKPT002"]

    def test_read_mode_allowed(self):
        assert lint(
            'def load(binlog_path):\n'
            '    with open(binlog_path, "rb") as stream:\n'
            '        return stream.read()\n',
            rules=["CKPT002"],
        ) == []

    def test_non_binlog_path_allowed(self):
        assert lint(
            'def save(log_path):\n'
            '    with open(log_path, "wb") as stream:\n'
            '        stream.write(b"line")\n',
            rules=["CKPT002"],
        ) == []

    def test_checkpoint_helper_module_exempt(self):
        engine = LintEngine(rules=[get_rule("CKPT002")])
        findings = engine.lint_source(
            'def atomic(binlog_path):\n'
            '    with open(binlog_path + ".tmp", "wb") as stream:\n'
            '        stream.write(b"payload")\n',
            Path("src/repro/core/checkpoint.py"),
            module="repro.core.checkpoint",
        )
        assert findings == []
