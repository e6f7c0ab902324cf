"""The settable options of the three front-door constructors, in plain sight.

Adding or removing a knob means editing one of these lists, so the
size of the configuration surface changes only on purpose.
"""

import dataclasses
import inspect

from repro.cluster import ClusterService
from repro.core import GuardConfig
from repro.server import DelayServer


def init_options(cls):
    return list(inspect.signature(cls.__init__).parameters)[1:]  # not self


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
