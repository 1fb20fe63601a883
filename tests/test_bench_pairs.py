"""The claim rule and the pair order of tools/bench_pairs.py."""

import argparse
import importlib.util
import os

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(os.path.dirname(__file__), "..", "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

# ten pairs of a lower-is-better metric: the parent's quartiles, linearly
# interpolated, are 0.7025 and 0.7275 (IQR 0.025), its median 0.715
PARENT = [0.70, 0.71, 0.72, 0.73, 0.70, 0.71, 0.72, 0.73, 0.70, 0.75]


class TestVerdict:
    def test_a_clear_gain_holds(self):
        v = bench_pairs.verdict(PARENT, [p - 0.1 for p in PARENT], "lower")
        assert v["wins"] == 10 and v["pairs"] == 10
        assert v["parent"] == pytest.approx((0.7025, 0.715, 0.7275))
        assert v["gap"] == pytest.approx(0.1) and v["parent_iqr"] == pytest.approx(0.025)
        assert v["holds"]

    def test_nine_wins_of_ten_hold_and_eight_do_not(self):
        change = [p - 0.1 for p in PARENT]
        change[0] = PARENT[0] + 0.01
        assert bench_pairs.verdict(PARENT, change, "lower")["wins"] == 9
        assert bench_pairs.verdict(PARENT, change, "lower")["holds"]
        change[1] = PARENT[1]  # a tie is no win
        assert bench_pairs.verdict(PARENT, change, "lower")["wins"] == 8
        assert not bench_pairs.verdict(PARENT, change, "lower")["holds"]

    def test_a_gap_inside_the_parent_iqr_does_not_hold(self):
        v = bench_pairs.verdict(PARENT, [p - 0.02 for p in PARENT], "lower")
        assert v["wins"] == 10 and v["gap"] == pytest.approx(0.02) and not v["holds"]

    def test_higher_is_better_and_a_loss(self):
        parent = [100.0 + k for k in range(10)]  # IQR 4.5
        assert bench_pairs.verdict(parent, [p + 5 for p in parent], "higher")["holds"]
        v = bench_pairs.verdict(parent, [p + 5 for p in parent], "lower")
        assert v["wins"] == 0 and v["gap"] == pytest.approx(-5) and not v["holds"]

    def test_fewer_than_ten_pairs_never_hold(self):
        v = bench_pairs.verdict(PARENT[:9], [p - 0.1 for p in PARENT[:9]], "lower")
        assert v["wins"] == 9 and not v["holds"]

    @pytest.mark.parametrize("parent, change, better", [([1.0], [1.0, 2.0], "lower"),
                                                        ([], [], "lower"),
                                                        ([1.0], [1.0], "faster")])
    def test_bad_input_is_refused(self, parent, change, better):
        with pytest.raises(ValueError):
            bench_pairs.verdict(parent, change, better)


class TestRegression:
    # PARENT's median 0.715 and a bound of 0.25: a margin of 0.17875
    @pytest.mark.parametrize("shift, verdict", [(0.1, "within bound"), (0.17, "within bound"),
                                                (0.2, "regressed"), (-0.1, "within bound")])
    def test_the_median_against_the_margin(self, shift, verdict):
        r = bench_pairs.regression(PARENT, [p + shift for p in PARENT], "lower", 0.25)
        assert r["margin"] == pytest.approx(0.17875) and r["worse"] == pytest.approx(shift)
        assert r["verdict"] == verdict

    def test_a_spread_wider_than_the_margin_is_unresolved(self):
        # a bound of 0.02 gives a margin of 0.0143, below the parent's IQR of 0.025
        r = bench_pairs.regression(PARENT, [p + 0.01 for p in PARENT], "lower", 0.02)
        assert r["parent_iqr"] == pytest.approx(0.025) and r["verdict"] == "unresolved"
        assert bench_pairs.regression(PARENT, PARENT, "lower", 0.02)["verdict"] == "unresolved"

    def test_every_change_run_better_resolves_a_wide_spread(self):
        assert bench_pairs.regression(PARENT, [0.69] * 10, "lower", 0.02)["verdict"] == \
            "within bound"
        # one change run no better than the parent's best leaves it unresolved
        assert bench_pairs.regression(PARENT, [0.69] * 9 + [0.70], "lower", 0.02)["verdict"] \
            == "unresolved"

    def test_higher_is_better(self):
        parent = [100.0 + k for k in range(10)]  # median 104.5, IQR 4.5
        # a bound of 0.06: a margin of 6.27
        for shift, verdict in ((-5, "within bound"), (-7, "regressed"), (3, "within bound")):
            r = bench_pairs.regression(parent, [p + shift for p in parent], "higher", 0.06)
            assert r["margin"] == pytest.approx(6.27) and r["verdict"] == verdict
        assert bench_pairs.regression(parent, [p - 1 for p in parent], "higher",
                                      0.01)["verdict"] == "unresolved"

    @pytest.mark.parametrize("parent, change, better", [([], [1.0], "lower"),
                                                        ([1.0], [1.0], "faster")])
    def test_bad_input_is_refused(self, parent, change, better):
        with pytest.raises(ValueError):
            bench_pairs.regression(parent, change, better, 0.25)

    def test_the_report_gives_the_verdict_of_end_to_end_metrics_only(self):
        runs = [{"side": side, "seed": seed, "result": {"correct": True, "metrics": {
                    "prepare_s": {"value": value}, "data.ingest_s": {"value": value}}}}
                for seed, p in enumerate(PARENT)
                for side, value in (("parent", p), ("change", p + 0.2))]
        lines = bench_pairs.report(runs, {"prepare_s": "lower", "data.ingest_s": "lower"},
                                   {"prepare_s": 0.25})
        assert "no regression (bound 0.25): regressed" in lines[0]
        assert "no regression" not in lines[1]


def test_sides_alternate_which_runs_first():
    calls = []
    runs = bench_pairs.run_pairs([5, 6, 7], lambda side, seed: calls.append((side, seed))
                                 or {"side": side, "seed": seed})
    assert calls == [("parent", 5), ("change", 5), ("change", 6), ("parent", 6),
                     ("parent", 7), ("change", 7)]
    assert runs == [{"side": s, "seed": n} for s, n in calls]


def test_paired_values_skip_a_seed_with_an_incorrect_side():
    def run(side, seed, value, correct=True):
        return {"side": side, "seed": seed,
                "result": {"correct": correct, "metrics": {"prepare_s": {"value": value}}}}

    runs = [run("parent", 1, 0.7), run("change", 1, 0.6), run("change", 2, 0.5),
            run("parent", 2, 0.8, correct=False), run("parent", 3, 0.9), run("change", 3, 0.4)]
    assert bench_pairs.paired_values(runs, "prepare_s") == ([0.7, 0.9], [0.6, 0.4])
    assert "change better in 2/2 pairs" in bench_pairs.report(runs, {"prepare_s": "lower"})[0]


def test_seed_ranges():
    assert bench_pairs.parse_seeds("3-5") == [3, 4, 5]
    assert bench_pairs.parse_seeds("7") == [7]
    for bad in ("5-3", "a-b", "1-"):
        with pytest.raises(argparse.ArgumentTypeError):
            bench_pairs.parse_seeds(bad)
