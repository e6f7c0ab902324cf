"""The query lifecycle is written once, in plain sight.

``core/pipeline.py`` is the only implementation of authorize →
execute → charge → record → sleep; the cluster router and the SQLite
proxy host it with their own execute stage. Each list below names every
file under ``src/repro/`` in which one of the lifecycle's calls or
choices may appear (definitions included), so a second hand-written
copy of the lifecycle means editing a list here, on purpose.

A SELECT's result is shaped once too: projection, grouping,
aggregation, ordering, slicing and ``touched`` are ``Executor._shape``,
and the columnar tier only sources rows and reads them. It serves every
statement: no shape falls back to the row tier, and UPDATE and DELETE
pick their targets from the same row source a SELECT reads.

The same goes for what a guard can be configured to be: options only
an ablation or a test set are gone from ``GuardConfig``, the §4.4 count
stores live in ``repro.experiments``, and the serving packages never
import them. Extraction forensics is one monitor class, which the
pipeline alone builds and feeds.
"""

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import repro
from repro.adapters.sqlite_proxy import SQLiteDelayProxy
from repro.cluster.router import ClusterRouter
from repro.cluster.service import ClusterGuard
from repro.core.guard import DelayGuard
from repro.core.popularity import DecayedCounts, PopularityTracker
from repro.core.result_cache import ResultCache
from repro.core.update_tracker import UpdateRateTracker
from repro.engine import Executor, VectorizedExecutor

SRC = Path(repro.__file__).parent

PINNED = {
    # §2.4: charge the query, then the tuples it retrieved
    "authorize_query(": ["core/accounts.py", "core/pipeline.py"],
    "record_retrieval(": ["core/accounts.py", "core/pipeline.py"],
    # §1.1's result limit: checked in the account stage; cluster shards
    # switch theirs off because the router checks the whole answer
    "max_result_rows": [
        "cluster/service.py",
        "core/config.py",
        "core/pipeline.py",
    ],
    "forensics.observe(": ["core/pipeline.py"],
    "ForensicsMonitor(": ["core/pipeline.py"],
    # the trackers-and-policy wiring every tracker-owning host shares
    "policy_from_config(": ["core/delay_policy.py", "core/pipeline.py"],
    # the record stage, GuardStats' own definition, and the simulator's
    # mode="fast" replay (pinned equivalent by tests/sim/test_simulator.py)
    "note_select(": ["core/guard.py", "core/pipeline.py", "sim/simulator.py"],
}


def files_mentioning(needle):
    return sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if needle in path.read_text()
    )


def test_lifecycle_calls_live_where_pinned():
    found = {needle: files_mentioning(needle) for needle in PINNED}
    assert found == PINNED


def test_the_hand_written_copies_are_gone():
    for owner, names in (
        (ClusterRouter, ("_execute_select", "_result_keys")),
        (
            SQLiteDelayProxy,
            ("_execute_select", "_execute_dml", "_build_policy"),
        ),
        (DelayGuard, ("_build_policy", "_build_store")),
    ):
        for name in names:
            assert not hasattr(owner, name), f"{owner.__name__}.{name}"
    # ClusterGuard's execute *is* the router's (bound in __init__): no
    # stub that answers a cache_only probe on the pipeline's behalf
    assert "execute" not in vars(ClusterGuard)


#: ``GuardConfig`` fields that no caller outside the tests set, deleted
#: with every code path that only they selected.
DELETED_OPTIONS = (
    "popularity_mode",
    "count_store",
    "count_cache_size",
    "count_capacity",
    "charge_returned_tuples",
    "record_accesses",
    "record_updates",
    "parse_cache_size",
    "result_cache_ttl",
    "forensics_coverage_threshold",
    "forensics_novelty_threshold",
    "forensics_window",
    "forensics_min_requests",
    "forensics_max_identities",
    "forensics_max_keys_per_identity",
)


def test_deleted_options_stay_deleted():
    # As a field, a keyword, a string or a config read. ``record_updates``
    # survives as the name of a host hook (where DML is recorded), which
    # is a method call, not an option.
    option = "|".join(DELETED_OPTIONS)
    pattern = re.compile(
        rf"\b(?:{option})\s*[:=]|[\"'](?:{option})[\"']"
        rf"|\bconfig\.(?:{option})\b"
    )
    for path in SRC.rglob("*.py"):
        text = path.read_text()
        assert not pattern.search(text), path
        for name in ("count_store_from_config", "CountingSampleStore"):
            assert name not in text, (path, name)
    assert list(inspect.signature(ResultCache.__init__).parameters) == [
        "self",
        "maxsize",
    ]


def test_one_extraction_monitor():
    # Profiles, thresholds, flags, audit and metrics are one class in
    # obs/forensics.py, built by the pipeline alone and fed by its
    # forensics stage: no second monitor, and no feed that wraps a
    # guard's execute.
    for needle in ("core.detection", "attach_monitor", "CoverageMonitor"):
        assert files_mentioning(needle) == [], needle
    assert not (SRC / "core" / "detection.py").exists()
    assigned = re.compile(r"^\s*(.*\.execute\s*=[^=].*)$", re.MULTILINE)
    found = {
        str(path.relative_to(SRC)): assigned.findall(path.read_text())
        for path in SRC.rglob("*.py")
        if assigned.search(path.read_text())
    }
    # ClusterGuard binds the router's front door as its own in __init__
    assert found == {
        "cluster/service.py": ["self.execute = cluster.router.execute"]
    }


def test_core_holds_one_count_store():
    tree = ast.parse((SRC / "core" / "counts.py").read_text())
    classes = [
        node.name for node in tree.body if isinstance(node, ast.ClassDef)
    ]
    assert classes == ["InMemoryCountStore"]


def test_serving_packages_import_no_experiment():
    # A fresh interpreter: this process may have imported anything.
    code = (
        "import sys, repro.core, repro.server, repro.cluster; "
        "print(sorted(m for m in sys.modules "
        "if m.startswith('repro.experiments')))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert done.stdout.strip() == "[]"


def test_one_decayed_count_primitive():
    # Both §2.3 popularity and §3 update rates are decay clocks on one
    # core: one store, one mirror/merge/snapshot implementation.
    shared = (
        "versions",
        "delta_since",
        "merge",
        "_merge_self",
        "_merge_remote",
        "dump_state",
        "_rescale",
    )
    for tracker in (PopularityTracker, UpdateRateTracker):
        assert issubclass(tracker, DecayedCounts)
        for name in shared:
            assert name not in vars(tracker), (tracker.__name__, name)


def test_one_select_shaper():
    # The columnar tier keeps dispatch, row sourcing and its row reader;
    # everything after the scan is the classic tier's shaper.
    sourcing = {
        "_execute_bound_select",
        "_vector_select",
        "_single_table_tuples",
        "_joined_tuples",
        "_static_equi_keys",
        "_target_rowids",
    }
    own = {
        name for name in vars(VectorizedExecutor) if not name.startswith("__")
    }
    assert own <= sourcing, own - sourcing
    shaping = (
        "_shape",
        "_grouped",
        "_ordered",
        "_projector",
        "_aggregators",
        "_aggregate_of_values",
        "_output_columns",
    )
    for name in shaping:
        assert name in vars(Executor), name
    # numpy is a declared dependency: no tier runs without it
    assert files_mentioning("HAVE_NUMPY") == []


def test_one_serving_row_source():
    # No per-statement fallback to the row tier, and no counter of it.
    for needle in ("NotVectorizable", "path_counts", "execution_path_counts"):
        assert files_mentioning(needle) == [], needle
    # UPDATE and DELETE take their targets from the tier's row source,
    # not from a candidate loop of their own.
    for handler in (
        Executor.execute_update,
        Executor.execute_delete,
        Executor._write_targets,
    ):
        code = inspect.getsource(handler)
        for name in ("candidate_rowids", "predicate_holds"):
            assert name not in code, (handler.__name__, name)
    for name in ("execute_update", "execute_delete"):
        assert name not in vars(VectorizedExecutor), name


def _fresh_literal_reads(monkeypatch):
    """1 000 fresh-literal point reads through a guard, counting
    ``Parser`` constructions and ``Histogram.observe`` calls."""
    from repro.engine import Database
    from repro.engine.parser import parser as parser_module
    from repro.obs import Histogram

    database = Database()
    database.execute("CREATE TABLE items (id INTEGER PRIMARY KEY, v TEXT)")
    database.insert_rows("items", [(i, f"v{i}") for i in range(1, 1001)])
    guard = DelayGuard(database)
    parser_module.configure_parse_cache(parser_module.PARSE_CACHE_DEFAULT_SIZE)
    built, observed = [], []
    construct, observe = parser_module.Parser.__init__, Histogram.observe

    def counting_construct(self, *args, **kwargs):
        built.append(1)
        construct(self, *args, **kwargs)

    def counting_observe(self, value):
        observed.append(self.name)
        observe(self, value)

    monkeypatch.setattr(parser_module.Parser, "__init__", counting_construct)
    monkeypatch.setattr(Histogram, "observe", counting_observe)
    for item in range(1, 1001):
        guard.execute(f"SELECT * FROM items WHERE id = {item}")
    return guard, built, observed


def test_a_statement_shape_is_parsed_once(monkeypatch):
    # Every later literal binds into the shape's template.
    _guard, built, _observed = _fresh_literal_reads(monkeypatch)
    assert len(built) == 1


def test_the_stage_loop_observes_no_histogram(monkeypatch):
    # One record per query, folded in batches; the one observe per
    # SELECT left is GuardStats' delay histogram.
    guard, _built, observed = _fresh_literal_reads(monkeypatch)
    assert observed == ["guard_select_delay_seconds"] * 1000
    stage = guard.obs.registry.get("guard_stage_execute_seconds")
    assert stage.count == 1000
