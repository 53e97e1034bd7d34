"""Tests of the benchmark's own arithmetic.

    PYTHONPATH=src python -m pytest -q bench

Covers span recording and self time, the ten-samples-beyond percentile
rule, the layer self-time sum check, the tracing-overhead probe, and that
the per-bag count metrics repeat exactly.
"""

import datetime as dt
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import detectbert  # noqa: E402
from detectbert import model as db_model  # noqa: E402
from detectbert import numerics as db_numerics  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402


def make_spans(rows):
    """Spans from (name, start, end, parent) rows."""
    names, start, end, parent = (list(column) for column in zip(*rows))
    return spans.Spans(names, start, end, parent, [0] * len(rows))


class TestSelfTime:
    def test_nested_children_are_subtracted_once(self):
        start = [0, 10, 40, 50]
        end = [100, 30, 70, 60]
        parent = [-1, 0, 0, 2]
        assert spans.self_times(start, end, parent) == [50, 20, 20, 10]

    def test_self_times_sum_to_root_duration(self):
        start = [0, 5, 6, 20, 21, 22]
        end = [90, 15, 14, 80, 79, 30]
        parent = [-1, 0, 1, 0, 3, 4]
        assert sum(spans.self_times(start, end, parent)) == 90

    def test_overlapping_and_overhanging_children_count_their_union(self):
        start = [0, 10, 40, 90]
        end = [100, 50, 80, 120]
        parent = [-1, 0, 0, 0]
        # children cover [10, 80] and [90, 100] of the parent
        assert spans.self_times(start, end, parent)[0] == 20

    def test_childless_span_is_all_self(self):
        assert spans.self_times([3], [8], [-1]) == [5]


class TestRecording:
    def test_events_rebuild_the_span_tree(self):
        tracer = spans.Tracer()
        tracer.begin("a")
        tracer.begin("b")
        tracer.finish()
        tracer.begin("c")
        tracer.finish()
        tracer.finish()
        recorded = tracer.spans()
        assert recorded.names == ["a", "b", "c"]
        assert recorded.parent == [-1, 0, 0]
        s, e = recorded.start, recorded.end
        assert s[0] <= s[1] <= e[1] <= s[2] <= e[2] <= e[0]

    def test_unfinished_span_is_an_error(self):
        tracer = spans.Tracer()
        tracer.begin("a")
        with pytest.raises(RuntimeError):
            tracer.spans()

    def test_read_bag_records_its_bytes(self):
        class FakeBag:
            embeddings = np.zeros((3, 4), dtype=np.float32)

        tracer = spans.Tracer()
        read = tracer._wrap(FakeBag, "data.read_bag")
        tracer.begin(spans.BENCH_OP)
        read()
        tracer.finish()
        assert tracer.spans().payload == [0, 3 * 4 * 4 + 16]


class TestPercentile:
    def test_p90_needs_ten_samples_beyond(self):
        assert stats.percentile(range(1, 101), 90) == 90
        with pytest.raises(ValueError):
            stats.percentile(range(1, 100), 90)

    def test_min_samples(self):
        assert stats.min_samples(90) == 100
        assert stats.min_samples(50) == 20
        assert stats.min_samples(99) == 1000

    def test_rank_has_no_float_rounding(self):
        # 0.9 * 110 is 99.00000000000001 in floating point; the rank must be 99
        assert stats.percentile(range(1, 111), 90) == 99

    def test_order_does_not_matter(self):
        values = list(range(200))
        assert stats.percentile(values[::-1], 90) == stats.percentile(values, 90) == 179

    def test_quartile_spread(self):
        values = [10.0, 11.0, 9.0, 10.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.0]
        assert stats.quartile_spread(values) == pytest.approx((10.275 - 9.725) / 10.0)


class TestLayerSum:
    def test_layer_self_times_plus_bench_self_equal_op_wall(self):
        recorded = make_spans([
            (spans.BENCH_OP, 0, 1000, -1),
            ("cli.main", 10, 990, 0),
            ("data.load_manifest", 20, 120, 1),
            ("training.evaluate", 130, 900, 1),
            ("model.forward", 140, 880, 3),
            ("numerics.matmul", 150, 400, 4),
            (spans.BENCH_OP, 2000, 2500, -1),
            ("cli.main", 2000, 2500, 6),
        ])
        metrics, checks = spans.layer_metrics(recorded, items=2)
        assert checks["op_wall_ns"] == 1500
        assert checks["layer_sum_ns"] == 1500 - 20  # bench.op's own 20 ns are not a layer
        assert metrics["cli.self_ms"][0] == pytest.approx((980 - 100 - 770 + 500) * 1e-6 / 2)
        assert metrics["numerics.matmul.fwd_ms"][0] == pytest.approx(250 * 1e-6 / 2)
        assert metrics["model.forward_ms"][0] == pytest.approx(740 * 1e-6)

    def test_sum_is_taken_against_the_untraced_time(self):
        # traced calls took 1500 ns, 1.05x what the same calls take untraced
        pct = spans.untraced_layer_sum_pct(1480, 1500, 1.05)
        assert pct == pytest.approx(100.0 * 1480 / (1500 / 1.05))
        assert spans.layer_sum_problem(pct, 10.0) is None

    def test_check_fails_when_tracing_inflates_the_layers(self):
        # the layers account for all 1500 traced ns, but untraced the same
        # calls took 1200 ns: the layer times overstate the workload by 25%
        pct = spans.untraced_layer_sum_pct(1500, 1500, 1500 / 1200)
        assert pct == pytest.approx(125.0)
        assert "125.0%" in spans.layer_sum_problem(pct, 10.0)

    def test_check_fails_when_the_layers_miss_time(self):
        assert spans.layer_sum_problem(88.0, 10.0) is not None
        assert spans.layer_sum_problem(90.0, 10.0) is None


def small_bag(n, seed):
    rng = np.random.default_rng(seed)
    return detectbert.Bag("b", 1, dt.date(2020, 1, 1), rng.standard_normal((n, 16)))


def traced_counts(bags, config, seed, train_step=False):
    params = db_model.init_params(config, seed)
    tracer = spans.Tracer()
    tracer.install(detectbert)
    try:
        for bag in bags:
            tracer.begin(spans.BENCH_OP)
            if train_step:
                db_model.forward(bag, params).backward()
            else:
                db_model.predict(bag, params)
            tracer.finish()
    finally:
        tracer.uninstall()
    metrics, checks = spans.layer_metrics(tracer.spans(), items=len(bags))
    counts = tuple(
        metrics[f"numerics.{k}"][0]
        for k in ("nodes_per_bag", "pinv_calls_per_bag", "matmul_calls_per_bag")
    )
    return counts, checks


class TestCounts:
    config = db_model.ModelConfig(d=16, num_blocks=2, heads=2, landmarks=8, pinv_iters=3)

    def test_counts_repeat_across_sizes_regimes_and_seeds(self):
        # n + 1 <= 8 runs in the exact regime, larger bags use 8 landmarks
        first, checks = traced_counts([small_bag(n, n) for n in (3, 7, 40, 150)], self.config, 1)
        assert checks["forward_counts_equal"] and checks["forwards"] == 4
        again, _ = traced_counts([small_bag(n, n + 1) for n in (90, 5)], self.config, 2)
        assert again == first
        assert first[1] == self.config.num_blocks * self.config.heads

    def test_training_forward_records_the_same_counts(self):
        inference, _ = traced_counts([small_bag(30, 0)], self.config, 3)
        training, _ = traced_counts([small_bag(30, 0)], self.config, 3, train_step=True)
        assert training == inference

    def test_overhead_probe_compares_like_with_like(self):
        params = db_model.init_params(self.config, 0)
        bags = [small_bag(n, n) for n in (5, 30)]
        units = [lambda bag=bag: db_model.predict(bag, params) for bag in bags]
        originals = (db_numerics.matmul, db_model.predict)
        ratio = spans.tracing_overhead(detectbert, units, seconds=0.0, min_pairs=6)
        # spans cost microseconds per primitive call, not multiples of the call
        assert 0.5 < ratio < 2.0
        assert (db_numerics.matmul, db_model.predict) == originals

    def test_uninstall_restores_the_package(self):
        originals = (db_numerics.matmul, db_model.forward, db_numerics.Tensor.backward,
                     detectbert.forward, detectbert.cli.main)
        traced_counts([small_bag(10, 0)], self.config, 0, train_step=True)
        assert (db_numerics.matmul, db_model.forward, db_numerics.Tensor.backward,
                detectbert.forward, detectbert.cli.main) == originals
