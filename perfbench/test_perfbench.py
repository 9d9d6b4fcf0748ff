"""The benchmark's own tests: the percentile rule, the layer map, and the
determinism / zero-cost properties every run relies on.

Run with ``python3 -m pytest perfbench -q`` from the repository root.  The
workload tests use scaled-down subclasses so they finish in seconds; the
code paths are the full workloads'.
"""

import json
import os

import pytest
from repro.core.group import GroupSession

import ledger
import run
import workloads
from stats import MIN_BEYOND, beyond, median, percentile


# -- percentiles ---------------------------------------------------------------

def test_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(100)), 0.9) == (89, 100)
    assert beyond(100, 0.9) == MIN_BEYOND
    assert percentile(list(range(99)), 0.9) is None
    assert percentile(list(range(1000)), 0.99) == (989, 1000)
    assert percentile(list(range(999)), 0.99) is None


def test_percentile_counts_ties_and_order_free():
    samples = [5] * 50 + [7] * 50
    assert percentile(list(reversed(samples)), 0.5) == (5, 100)
    assert percentile(samples, 0.9) == (7, 100)


def test_percentile_rejects_bad_quantiles():
    with pytest.raises(ValueError):
        percentile([1, 2, 3], 1.0)
    assert percentile([], 0.5) is None


def test_median_reports_small_samples_with_their_count():
    assert median([3, 1]) == (2.0, 2)
    assert median([9]) == (9, 1)
    with pytest.raises(ValueError):
        median([])


# -- layer map -----------------------------------------------------------------

def test_layer_of_maps_modules_and_packages():
    root = os.path.join("x", "src", "repro")
    assert ledger.layer_of(os.path.join(root, "sim", "resources.py")) == \
        "sim.resources"
    assert ledger.layer_of(os.path.join(root, "rdma", "verbs.py")) == "rdma"
    assert ledger.layer_of(os.path.join(root, "pmem", "pool.py")) == "other"
    assert ledger.layer_of("~") == "other"
    assert ledger.layer_of(os.path.join("lib", "json", "encoder.py")) == \
        "other"


# -- workloads -----------------------------------------------------------------

class SmallGpt(workloads.GptGroup):
    SHAPE = (64, 4, 8, 32)


class SmallFleet(workloads.FleetMix):
    TENANTS, SHARDS, TICKS = 6, 2, 2
    MODEL_CYCLE = ("resnet18",)
    MIN_RESTORE_SAMPLES = 6


class SmallCrash(workloads.CrashRecover):
    DUMP_STEPS = (1, 2)
    EPISODES = 6


SMALL = (SmallGpt, SmallFleet, SmallCrash)


def _sim(workload):
    return run.signature(workload.body(workload.setup()))


@pytest.mark.parametrize("cls", SMALL, ids=lambda cls: cls.name)
def test_same_seed_gives_identical_simulated_metrics(cls):
    assert _sim(cls(5)) == _sim(cls(5))


@pytest.mark.parametrize("cls", SMALL, ids=lambda cls: cls.name)
def test_traced_run_simulates_exactly_like_untraced(cls):
    _, figures, problems = run.run_traced(cls(6))
    assert problems == []
    assert figures["host.trace_overhead_s"][0] != 0
    shares = [figures[f"{layer}.host_self_s"][0] for layer in ledger.LAYERS]
    assert sum(shares) > 0


def test_seed_changes_the_inputs():
    assert SmallGpt(1).config.vocab_size != SmallGpt(2).config.vocab_size \
        or SmallGpt(1).model_seeds != SmallGpt(2).model_seeds
    assert SmallFleet(1).extra_state.shape != SmallFleet(2).extra_state.shape


def test_gpt_group_checks_pass():
    gpt = SmallGpt(4)
    out = gpt.body(gpt.setup())
    assert out.problems == [] and out.attempted == 4


def test_gpt_group_checks_catch_a_restore_that_moves_no_bytes(monkeypatch):
    def restore_nothing(group):
        reply = yield from group.query()
        return reply["step"]

    monkeypatch.setattr(GroupSession, "restore", restore_nothing)
    gpt = SmallGpt(4)
    out = gpt.body(gpt.setup())
    assert out.failed == 1 and "not bit-exact" in out.problems[0]


def test_fleet_checks_pass_and_dedup_move_is_refused():
    fleet = SmallFleet(3)
    out = fleet.body(fleet.setup())
    assert out.problems == []
    assert out.refused == 1  # the typed dedup-migration refusal
    assert out.counts["migrate_bytes"] > 0
    assert len(out.samples["restore"]) >= SmallFleet.MIN_RESTORE_SAMPLES


def test_crash_recover_checks_pass_after_every_daemon_crash():
    crash = SmallCrash(2)
    out = crash.body(crash.setup())
    assert out.problems == []
    assert len(out.samples["recovery"]) == out.counts["episodes"]


def test_benchmark_json_names_every_reported_metric():
    path = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
    with open(path) as handle:
        declared = json.load(handle)
    assert [m["name"] for m in declared["end_to_end"]] == \
        [name for name, _ in run.END_TO_END]
    _, figures, _ = run.run_traced(SmallGpt(7))
    assert [m["name"] for m in declared["per_layer"]] == list(figures)
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == \
        {name: unit for name, (_, unit, _) in figures.items()}
