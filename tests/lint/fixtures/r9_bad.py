"""Fixture: R9 violations -- nondeterminism reaching determinism sinks.

repro-lint-scope: sa-scoring
"""

import os
import random
import time

_result_cache = {}
_memo = {}


def wall_clock():
    # Not itself a finding: taint travels through the summary to callers.
    return time.time()


def cache_lookup():
    return _result_cache[wall_clock()]  # wall clock into a cache key


def pid_lookup():
    return _result_cache.get(os.getpid())  # pid into a cache key


def identity_hash(config):
    return hash(id(config))  # object identity into hash()


def save_state():
    write_checkpoint("s.ckpt", payload=random.random())  # unseeded RNG


def report(emit_event):
    emit_event("run.end", elapsed=time.perf_counter())  # clock into event


def set_key():
    return _memo.get(tuple({"a", "b"}))  # set iteration order into a key


def score_candidate():
    return time.perf_counter()  # wall clock out of an SA scoring function
