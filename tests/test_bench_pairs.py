"""The summary of tools/bench_pairs.py on synthetic runs, without running the benchmark."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

_METRICS = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.03},
    {"name": "ok_frac", "unit": "frac", "better": "higher", "bound": 0.01},
]


def _run(ops, rss, digest="d0", ok=1.0):
    return {"metrics": {"ops_per_s": ops, "peak_rss_mb": rss, "ok_frac": ok},
            "attempted": 10, "failed": 0, "payload_sha256": digest}


# five pairs: the change is faster in four and ties in one, and uses more
# memory in every pair, by 5% in the median
_PAIRS = [{"parent": _run(p, 100.0 + i), "change": _run(c, 105.0 + 1.05 * i)}
          for i, (p, c) in enumerate([(100, 112), (104, 110), (98, 98), (102, 115), (96, 99)])]


def test_summary_statistics_and_direction():
    summary = bench_pairs.summarize(_PAIRS, _METRICS)
    ops = summary["ops_per_s"]
    assert ops["parent"] == {"median": 100, "q1": 98, "q3": 102, "spread": 0.04}
    assert (ops["change"]["median"], ops["change"]["q1"], ops["change"]["q3"]) == (110, 99, 112)
    assert ops["median_gain"] == pytest.approx(0.10)
    assert (ops["wins"], ops["ties"], ops["pairs"]) == (4, 1, 5)
    # the median moved by 10, more than the parent's quartile distance of 4
    assert ops["within_bound"] and ops["gain_exceeds_parent_iqr"]
    rss = summary["peak_rss_mb"]
    # lower is better: a higher change reads as a negative gain, and a 5% rise
    # is beyond the 3% bound
    assert rss["median_gain"] == pytest.approx(-0.05)
    assert (rss["wins"], rss["ties"]) == (0, 0)
    assert not rss["within_bound"] and not rss["gain_exceeds_parent_iqr"]
    ok = summary["ok_frac"]
    assert ok["median_gain"] == 0.0 and ok["ties"] == 5 and ok["within_bound"]
    assert ok["parent"]["spread"] == 0.0


def test_summary_of_one_pair_and_a_zero_parent():
    pair = {"parent": _run(0.0, 50.0, ok=0.0), "change": _run(5.0, 50.0, ok=0.0)}
    summary = bench_pairs.summarize([pair], _METRICS)
    assert summary["ops_per_s"]["parent"] == {"median": 0.0, "q1": 0.0, "q3": 0.0,
                                              "spread": 0.0}
    assert summary["ops_per_s"]["median_gain"] is None
    assert not summary["ops_per_s"]["within_bound"]
    assert summary["peak_rss_mb"]["median_gain"] == 0.0


def test_pair_record_keeps_both_sides_and_digests():
    names = [m["name"] for m in _METRICS]
    record = bench_pairs.pair_record(3, _PAIRS[0], names)
    assert record["seed"] == 3 and record["first"] == "parent"
    assert record["ops_per_s"] == [100, 112]
    assert record["payload_sha256"] == ["d0", "d0"] and record["payload_sha256_equal"]
    other = {"parent": _run(1.0, 1.0), "change": _run(1.0, 1.0, digest="d1")}
    record = bench_pairs.pair_record(4, other, names)
    assert record["first"] == "change" and not record["payload_sha256_equal"]


def test_parse_output_reads_the_last_two_lines():
    stdout = ("workload=pattern_grid seed=1 trace=0 missing_wraps=none "
              "payload_sha256=abc digest_repeat=first\n"
              '{"correct": true, "attempted": 7, "failed": 0, '
              '"metrics": {"ops_per_s": {"value": 2.5, "unit": "1/s"}}}\n')
    run = bench_pairs.parse_output(stdout)
    assert run["metrics"] == {"ops_per_s": 2.5}
    assert (run["attempted"], run["failed"], run["correct"]) == (7, 0, True)
    assert run["payload_sha256"] == "abc" and run["notes"]["missing_wraps"] == "none"


def test_traced_summary_medians():
    runs = [{"parent": {"metrics": {"cli.write_ms": v}},
             "change": {"metrics": {"cli.write_ms": v / 2}}} for v in (80.0, 60.0, 70.0)]
    summary = bench_pairs.traced_summary(runs)
    assert summary["cli.write_ms"]["parent"] == {"runs": [80.0, 60.0, 70.0], "median": 70.0}
    assert summary["cli.write_ms"]["change"]["median"] == 35.0
