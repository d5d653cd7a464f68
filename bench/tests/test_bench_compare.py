"""The compare command's judgement of two result sets."""

import json
import statistics

import compare

SPEC = {
    "workloads": [{"name": "w1", "why": "."}],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
}


def record(wall, setup=1.0, failed=4, attempted=100, correct=True):
    return {"workload": "w1", "trace": 0, "correct": correct,
            "attempted": attempted, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "setup_s": {"value": setup, "unit": "s"}}}


def test_summarize_uses_statistics_quartiles():
    values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 1.0, 0.98, 1.02, 1.01]
    q1, _, q3 = statistics.quantiles(values, n=4)
    got = compare.summarize(values)
    assert (got["q1"], got["q3"]) == (q1, q3)
    assert got["spread"] == (q3 - q1) / statistics.median(values)


def test_judge_respects_direction_and_bound():
    base = [1.0, 1.01, 0.99, 1.0]
    assert compare.judge(base, [x * 1.05 for x in base], "lower", 0.1)["within"]
    assert not compare.judge(base, [x * 1.15 for x in base], "lower", 0.1)["within"]
    # For a higher-is-better metric a drop is the worse direction.
    assert not compare.judge(base, [x * 0.85 for x in base], "higher", 0.1)["within"]
    assert compare.judge(base, [x * 1.5 for x in base], "higher", 0.1)["within"]


def test_judge_flags_a_spread_wider_than_the_bound():
    noisy = [0.7, 1.0, 1.3, 1.0, 0.8, 1.2]
    assert not compare.judge(noisy, noisy, "lower", 0.1)["within"]
    assert compare.judge(noisy, noisy, "lower", 0.5)["within"]


def test_compare_sets():
    a = {"w1": [record(1.0 + i / 100) for i in range(5)]}
    b = {"w1": [record(1.02 + i / 100, setup=1.5) for i in range(5)]}
    rows, ok = compare.compare(a, b, SPEC)
    verdicts = {metric: v["within"] for _, metric, v in rows}
    assert verdicts == {"wall_s": True, "setup_s": False}
    assert not ok
    # A different share of failed operations is never within.
    b = {"w1": [record(1.0 + i / 100, failed=5) for i in range(5)]}
    rows, ok = compare.compare(a, b, SPEC)
    assert not ok and rows[0][2] is None


def test_load_set_keeps_untraced_runs(tmp_path):
    (tmp_path / "a.json").write_text(json.dumps(record(1.0)))
    traced = dict(record(2.0), trace=1)
    (tmp_path / "b.json").write_text(json.dumps(traced))
    assert compare.load_set(tmp_path) == {"w1": [record(1.0)]}
