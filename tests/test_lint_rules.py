"""Per-rule true-positive / false-positive tests on small snippets.

Each rule is exercised directly (``rule.check`` on a parsed snippet), so
a failure points at the rule, not the engine.  The fixture-based
end-to-end test lives in test_lint_fixtures.py.
"""

import ast
import textwrap

from repro.lint import all_rules, get_rule
from repro.lint.findings import LintContext, Severity, is_hot_path
from repro.lint.graph import ProjectGraph

HOT = "src/repro/memsys/snippet.py"
COLD = "src/repro/analysis/snippet.py"


def run_rule(code, source, path=HOT):
    source = textwrap.dedent(source)
    tree = ast.parse(source)
    # Single-module graph so the whole-program rule (SIM013) sees the
    # snippet the way the engine would.
    graph = ProjectGraph()
    module = graph.add_module(path, tree, name="snippet")
    ctx = LintContext(path=path, source=source,
                      lines=tuple(source.splitlines()),
                      hot_path=is_hot_path(path),
                      graph=graph, module=module)
    return list(get_rule(code).check(tree, ctx))


def lines_of(findings):
    return [f.line for f in findings]


# -- registry ---------------------------------------------------------------

def test_builtin_rules_registered():
    codes = [r.code for r in all_rules()]
    assert codes == ["SIM001", "SIM002", "SIM003", "SIM004", "SIM005",
                     "SIM006", "SIM007", "SIM008", "SIM009", "SIM013"]
    for rule in all_rules():
        assert rule.name
        assert rule.description
        assert rule.default_severity is Severity.ERROR


# -- SIM001 shared mutable state --------------------------------------------

def test_sim001_flags_module_level_mutables():
    findings = run_rule("SIM001", """\
        CACHE = {}
        SEEN = set()
        ROWS = [1, 2]
    """)
    assert lines_of(findings) == [1, 2, 3]
    assert all(f.rule == "SIM001" for f in findings)


def test_sim001_flags_class_level_mutables():
    findings = run_rule("SIM001", """\
        class PageTable:
            frames = []
    """)
    assert lines_of(findings) == [2]


def test_sim001_allows_verified_immutable_tables():
    findings = run_rule("SIM001", """\
        from types import MappingProxyType
        from typing import Final, Mapping

        SIZES: Final[Mapping[str, int]] = MappingProxyType({"a": 1})
        NAMES = ("x", "y")
        LIMIT: Final = [1, 2]
        __all__ = ["foo"]
    """)
    assert findings == []


def test_sim001_allows_dataclass_fields():
    findings = run_rule("SIM001", """\
        from dataclasses import dataclass, field

        @dataclass
        class Stats:
            buckets: list = field(default_factory=list)
    """)
    assert findings == []


# -- SIM002 unseeded randomness ---------------------------------------------

def test_sim002_flags_global_rng():
    findings = run_rule("SIM002", """\
        import random
        from random import randint

        def roll():
            return random.random() + randint(1, 6)
    """, path=COLD)
    # The from-import (line 2) and the module-function call (line 5).
    assert lines_of(findings) == [2, 5]


def test_sim002_flags_numpy_legacy_globals():
    findings = run_rule("SIM002", """\
        import numpy as np
        import numpy.random as npr

        def noise(n):
            return np.random.rand(n) + npr.standard_normal(n)
    """)
    assert len(findings) == 2
    assert lines_of(findings) == [5, 5]


def test_sim002_flags_numpy_random_imported_from_numpy():
    findings = run_rule("SIM002", """\
        from numpy import random as npr

        def noise():
            return npr.rand(3)
    """)
    assert lines_of(findings) == [4]


def test_sim002_allows_per_instance_generators():
    findings = run_rule("SIM002", """\
        import random
        from random import Random

        class Builder:
            def __init__(self, seed):
                self.rng = random.Random(seed)
                self.alt = Random(seed + 1)

            def pick(self):
                return self.rng.random()
    """)
    assert findings == []


# -- SIM003 wall clock in hot paths -----------------------------------------

WALL_CLOCK_SRC = """\
    import time
    import datetime

    def tick(self):
        start = time.perf_counter()
        stamp = datetime.datetime.now()
        return start, stamp
"""


def test_sim003_flags_wall_clock_in_hot_path():
    findings = run_rule("SIM003", WALL_CLOCK_SRC, path=HOT)
    assert lines_of(findings) == [5, 6]


def test_sim003_flags_function_local_time_import():
    findings = run_rule("SIM003", """\
        def tick(self):
            import time
            return time.monotonic()
    """)
    assert lines_of(findings) == [3]


def test_sim003_silent_outside_hot_path():
    assert run_rule("SIM003", WALL_CLOCK_SRC, path=COLD) == []


# -- SIM004 float cycle arithmetic ------------------------------------------

def test_sim004_flags_true_division_into_cycles():
    findings = run_rule("SIM004", """\
        def refresh(self, wheel, now):
            self.ready_cycle = now + self.t_ras / 2
            self.stall_cycles /= 2
            deadline = (now + 3) / 2
            wheel.schedule(now + self.t_cas / 4, self.fire)
    """)
    assert lines_of(findings) == [2, 3, 4, 5]


def test_sim004_allows_floor_div_int_and_non_cycle_floats():
    findings = run_rule("SIM004", """\
        def report(self, now):
            self.ready_cycle = now + self.t_ras // 2
            window_cycles = int(self.span / 2)
            rate = self.hits / self.accesses
            return rate
    """)
    assert findings == []


def test_sim004_silent_outside_hot_path():
    findings = run_rule("SIM004", """\
        def f(self, now):
            self.ready_cycle = now / 2
    """, path=COLD)
    assert findings == []


# -- SIM005 foreign stats mutation ------------------------------------------

def test_sim005_flags_foreign_stats_writes():
    findings = run_rule("SIM005", """\
        def record(self, sl, system):
            sl.stats.demand_hits += 1
            system.stats.emc.chains_generated += 1
            self.prefetcher.stats.useful += 1
    """)
    assert lines_of(findings) == [2, 3, 4]


def test_sim005_allows_owner_mutation_and_rebind():
    findings = run_rule("SIM005", """\
        class Component:
            def __init__(self, system):
                self.stats = system.stats.emc

            def note_hit(self):
                self.stats.hits += 1
                self.stats.latency.total += 4
    """)
    assert findings == []


# -- SIM006 mutable default arguments ---------------------------------------

def test_sim006_flags_mutable_defaults():
    findings = run_rule("SIM006", """\
        def collect(trace, out=[]):
            return out

        def tally(*, totals={}):
            return totals
    """)
    assert lines_of(findings) == [1, 4]


def test_sim006_allows_none_and_immutable_defaults():
    findings = run_rule("SIM006", """\
        def collect(trace, out=None, shape=(4, 4), name=""):
            return out or []
    """)
    assert findings == []


# -- SIM007 event scheduled in the past -------------------------------------

def test_sim007_flags_unclamped_absolute_times():
    findings = run_rule("SIM007", """\
        class Channel:
            def replay(self, req):
                self.wheel.schedule_at(req.queued_at, req.callback)

            def retreat(self, now, penalty):
                when = now - penalty
                self.wheel.schedule_at(when, self._pick)

            def from_parameter(self, when):
                self.wheel.schedule_at(when, self._pick)
    """)
    assert lines_of(findings) == [3, 7, 10]


def test_sim007_accepts_now_derived_and_clamped_times():
    findings = run_rule("SIM007", """\
        class Channel:
            def service(self, req, access):
                now = self.wheel.now
                cas_done = now + access
                data_start = max(cas_done, self.bus_free_at)
                data_done = data_start + self.cfg.data_bus_cycles
                self.wheel.schedule_at(data_done, req.callback)

            def pick(self, when):
                when = max(when, self.wheel.now)
                self.wheel.schedule_at(when, self._pick)

            def direct(self):
                self.wheel.schedule_at(self.wheel.now + 4, self._pick)
    """)
    assert findings == []


def test_sim007_mixed_assignments_stay_unsafe():
    # A name is only safe if *every* assignment to it is safe.
    findings = run_rule("SIM007", """\
        class Channel:
            def mixed(self, req):
                when = self.wheel.now + 1
                if req.urgent:
                    when = req.deadline
                self.wheel.schedule_at(when, req.callback)
    """)
    assert lines_of(findings) == [6]


def test_sim007_ignores_cold_paths_and_delay_schedule():
    assert run_rule("SIM007", """\
        def replot(viz):
            viz.wheel.schedule_at(viz.stamp, viz.redraw)
    """, path=COLD) == []
    assert run_rule("SIM007", """\
        class Core:
            def start(self):
                self.wheel.schedule(1 + 53 * self.core_id, self._tick)
    """) == []


# -- SIM008 cross-component reach-through -----------------------------------

def test_sim008_flags_deep_mutations():
    findings = run_rule("SIM008", """\
        class Core:
            def meddle(self, req, row):
                self.system.dram.queue.append(req)
                self.system.hierarchy.dram[0].banks[2].open_row = row
                self.system.llc.pending[req.line] = req
                self.hierarchy.llc.slices[0].tags.clear()
    """)
    assert sorted(lines_of(findings)) == [3, 4, 5, 6]


def test_sim008_allows_one_hop_and_exempt_paths():
    findings = run_rule("SIM008", """\
        class Core:
            def fine(self, req, line):
                self.queue.append(req)               # own container
                self.banks[2].open_row = 7           # one hop
                self.wheel._seq = 3                  # one hop
                self.stats.core.uops += 1            # SIM005's turf
                self.cfg.emc.enabled = True          # config plumbing
                self.system.dram.seed_open_row(line)  # owner method
                local = {}
                local.setdefault(line, req)          # not self-rooted
    """)
    assert findings == []


def test_sim008_fires_outside_hot_packages_too():
    findings = run_rule("SIM008", """\
        class Driver:
            def poke(self, system):
                self.system.dram.queue.append(1)
    """, path=COLD)
    assert lines_of(findings) == [3]


# -- SIM009 unordered iteration into timing ---------------------------------

def test_sim009_flags_set_iteration_that_schedules():
    findings = run_rule("SIM009", """\
        class Channel:
            def kick(self, lines):
                woken = {x for x in lines}
                for line in woken:
                    self.wheel.schedule(1, self._tick)
                for line in set(lines):
                    self.ring.send(0, 1, "ctrl", self._tick)
    """)
    assert lines_of(findings) == [4, 6]


def test_sim009_set_operators_propagate_through_names():
    findings = run_rule("SIM009", """\
        class Channel:
            def kick(self, lines, busy):
                pending = set(lines)
                pending = pending - busy
                for line in pending:
                    self.wheel.schedule_at(self.wheel.now + 1, self._tick)
    """)
    assert lines_of(findings) == [5]


def test_sim009_allows_sorted_dicts_and_sink_free_loops():
    findings = run_rule("SIM009", """\
        class Channel:
            def fine(self, lines, by_bank):
                woken = set(lines)
                for line in sorted(woken):
                    self.wheel.schedule(1, self._tick)
                for bank, reqs in by_bank.items():
                    self.wheel.schedule(2, self._tick)
                count = 0
                for line in woken:
                    count += 1
                maybe = list(lines)
                for line in maybe:
                    self.wheel.schedule(3, self._tick)
    """)
    assert findings == []


def test_timing_rules_keep_their_augmented_assignment_models():
    # SIM007 reads `when -= x` as `when - x`, which is never provably
    # >= now (here it is 4, a time in the past); SIM009 records only the
    # right-hand side of `pending -= busy`, and `busy` is not a known set.
    findings = run_rule("SIM007", """\
        class Channel:
            def back(self):
                when = self.wheel.now + 4
                when -= self.wheel.now
                self.wheel.schedule_at(when, self._tick)
    """)
    assert lines_of(findings) == [5]
    assert run_rule("SIM009", """\
        class Channel:
            def kick(self, lines, busy):
                pending = set(lines)
                pending -= busy
                for line in pending:
                    self.wheel.schedule(1, self._tick)
    """) == []


def test_sim009_silent_outside_hot_path():
    assert run_rule("SIM009", """\
        def replot(viz, marks):
            for m in {x for x in marks}:
                viz.wheel.schedule(1, viz.redraw)
    """, path=COLD) == []


# -- SIM013 inter-procedural determinism taint --------------------------------

def test_sim013_flags_laundered_wall_clock_into_schedule():
    findings = run_rule("SIM013", """\
        import time

        def fuzz_delay():
            return int(time.time()) % 7

        class Channel:
            def kick(self):
                self.wheel.schedule(fuzz_delay(), self._tick)
    """)
    assert lines_of(findings) == [8]
    assert "via call to" in findings[0].message


def test_sim013_flags_tainted_cycle_assignment_through_chain():
    findings = run_rule("SIM013", """\
        import random

        def jitter():
            return random.randint(0, 3)

        def padded_jitter():
            return jitter() + 1

        class Channel:
            def arm(self, now):
                self.ready_cycle = now + padded_jitter()
    """)
    assert lines_of(findings) == [11]
    assert "global RNG" in findings[0].message


def test_sim013_follows_helpers_with_function_local_imports(tmp_path):
    from repro.lint import lint_paths
    (tmp_path / "global_clock.py").write_text(textwrap.dedent("""\
        import time

        def stamp():
            return int(time.monotonic())
    """))
    (tmp_path / "local_clock.py").write_text(textwrap.dedent("""\
        def stamp():
            import time
            return int(time.monotonic())
    """))
    hot = tmp_path / "memsys" / "kick.py"
    hot.parent.mkdir()
    hot.write_text(textwrap.dedent("""\
        from global_clock import stamp as global_stamp
        from local_clock import stamp as local_stamp

        class Kicker:
            def kick(self):
                self.wheel.schedule(global_stamp(), self._tick)
                self.wheel.schedule(local_stamp(), self._tick)
    """))
    result = lint_paths([tmp_path])
    assert [(f.rule, f.line) for f in result.findings] == [
        ("SIM013", 6), ("SIM013", 7)]
    assert "'local_clock.stamp'" in result.findings[1].message


def test_sim013_direct_reads_left_to_sim003():
    # A wall-clock read on the sink line itself is SIM003's finding.
    findings = run_rule("SIM013", """\
        import time

        class Channel:
            def kick(self):
                self.wheel.schedule(int(time.time()) % 7, self._tick)
    """)
    assert findings == []


def test_sim013_seeded_helpers_are_clean():
    findings = run_rule("SIM013", """\
        import random

        def stagger(rng, core_id):
            return 1 + rng.randint(0, 53) * core_id

        class Core:
            def __init__(self, seed):
                self.rng = random.Random(seed)

            def start(self):
                self.wheel.schedule(stagger(self.rng, 2), self._tick)
    """)
    assert findings == []


def test_sim013_silent_outside_hot_path():
    assert run_rule("SIM013", """\
        import time

        def fuzz_delay():
            return int(time.time()) % 7

        class Viz:
            def kick(self):
                self.wheel.schedule(fuzz_delay(), self.redraw)
    """, path=COLD) == []
