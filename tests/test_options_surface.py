"""The settable options of the front-door constructors and of the
service lifecycle (build or recover, checkpoint), in plain sight.

Adding or removing a knob means editing one of these lists, so the
size of the configuration surface changes only on purpose.
"""

import dataclasses
import inspect

import repro.engine.durability
from repro.cluster import ClusterService
from repro.core import GuardConfig
from repro.server import DelayServer
from repro.service import DataProviderService


def options(function):
    return [
        name
        for name in inspect.signature(function).parameters
        if name not in ("self", "cls")
    ]


def init_options(cls):
    return options(cls.__init__)


def test_delay_server_options():
    assert init_options(DelayServer) == [
        "service",
        "host",
        "port",
        "read_timeout",
        "max_request_bytes",
        "drain_timeout",
        "max_handler_errors",
        "max_workers",
        "max_queue",
        "max_connections",
        "max_parked",
        "overload_retry_after",
    ]


def test_guard_config_options():
    assert [field.name for field in dataclasses.fields(GuardConfig)] == [
        "policy",
        "cap",
        "beta",
        "unit",
        "decay_rate",
        "fixed_delay",
        "update_c",
        "update_time_constant",
        "max_result_rows",
        "result_cache_size",
        "forensics",
        "node_id",
        "vectorized_execution",
    ]


def test_cluster_service_options():
    assert init_options(ClusterService) == [
        "shard_count",
        "guard_config",
        "account_policy",
        "clock",
        "obs",
        "data_dir",
        "journal_sync",
        "gossip",
        "gossip_interval",
        "replication_factor",
        "probe_interval",
        "_shards",
    ]


def test_data_provider_service_options():
    assert init_options(DataProviderService) == [
        "database",
        "guard_config",
        "account_policy",
        "clock",
        "obs",
        "snapshot_path",
        "journal_path",
        "journal_sync",
        "audit_path",
    ]


def test_recover_options():
    assert options(DataProviderService.recover) == [
        "snapshot_path",
        "journal_path",
        "guard_config",
        "account_policy",
        "clock",
        "obs",
        "journal_sync",
        "audit_path",
        "database_setup",
    ]


def test_checkpoint_takes_no_options():
    assert options(DataProviderService.checkpoint) == []


def test_recover_is_the_only_restore_path():
    assert not hasattr(DataProviderService, "load")
    for name in ("recover_database", "checkpoint_database"):
        assert not hasattr(repro.engine, name)
        assert not hasattr(repro.engine.durability, name)
