import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alskd.calibration import CalibrationBin, calibration_report, write_reliability_csv


def reliability_lines(report, tmp_path) -> list[str]:
    """The lines, header first, that ``write_reliability_csv`` writes for ``report``."""
    path = tmp_path / "calibration.csv"
    write_reliability_csv(report, path)
    return path.read_text().splitlines()


def parse_reliability_rows(lines) -> list[CalibrationBin]:
    """Oracle inverse of ``write_reliability_csv``: the bins read back through ``csv.reader``."""
    reader = csv.reader(lines)
    assert next(reader) == ["lower", "upper", "count", "mean_confidence", "accuracy"]
    return [CalibrationBin(float(lower), float(upper), int(count),
                           None if mean_conf == "" else float(mean_conf),
                           None if acc == "" else float(acc))
            for lower, upper, count, mean_conf, acc in reader]


def pairs(*groups):
    """Build (confidence, correct) rows from (conf, n_total, n_correct) groups."""
    rows = []
    for conf, n_total, n_correct in groups:
        rows += [(conf, 1.0)] * n_correct + [(conf, 0.0)] * (n_total - n_correct)
    return np.array(rows)


class TestReportValues:
    def test_perfectly_calibrated_bin(self):
        report = calibration_report(pairs((0.8, 10, 8)), n_bins=10)
        assert report.ece == pytest.approx(0.0, abs=1e-15)
        assert report.mce == pytest.approx(0.0, abs=1e-15)

    def test_maximally_miscalibrated(self):
        report = calibration_report(pairs((1.0, 20, 0)), n_bins=10)
        assert report.ece == 1.0
        assert report.mce == 1.0

    def test_two_bin_hand_example(self):
        # 50 pairs at 0.65 with 60% accuracy, 50 at 0.95 with 80%:
        # ECE = 0.5*0.05 + 0.5*0.15 = 0.10, MCE = 0.15
        report = calibration_report(pairs((0.65, 50, 30), (0.95, 50, 40)), n_bins=10)
        assert report.ece == pytest.approx(0.10, abs=1e-12)
        assert report.mce == pytest.approx(0.15, abs=1e-12)
        assert sum(b.count for b in report.bins) == 100

    def test_empty_bins_contribute_nothing(self):
        report = calibration_report(pairs((0.95, 4, 2)), n_bins=10)
        assert sum(b.count for b in report.bins) == 4
        assert sum(b.count > 0 for b in report.bins) == 1
        empty = report.bins[0]
        assert empty.count == 0 and empty.accuracy is None and empty.mean_confidence is None


class TestBinning:
    def test_boundary_goes_to_lower_bin(self):
        report = calibration_report(np.array([[0.3, 1.0]]), n_bins=10)
        assert report.bins[2].count == 1  # (0.2, 0.3]

    def test_just_above_boundary_goes_up(self):
        report = calibration_report(np.array([[np.nextafter(0.3, 1.0), 1.0]]), n_bins=10)
        assert report.bins[3].count == 1

    def test_zero_joins_first_bin(self):
        report = calibration_report(np.array([[0.0, 0.0]]), n_bins=10)
        assert report.bins[0].count == 1

    def test_one_lands_in_last_bin(self):
        report = calibration_report(np.array([[1.0, 1.0]]), n_bins=10)
        assert report.bins[-1].count == 1

    def test_bins_partition_unit_interval(self):
        report = calibration_report(np.array([[0.5, 1.0]]), n_bins=7)
        assert report.bins[0].lower == 0.0
        assert report.bins[-1].upper == 1.0
        for left, right in zip(report.bins, report.bins[1:]):
            assert left.upper == right.lower

    def test_single_bin(self):
        report = calibration_report(pairs((0.25, 4, 1)), n_bins=1)
        assert report.bins[0].count == 4
        assert report.ece == pytest.approx(0.0, abs=1e-15)


class TestInvariances:
    def test_duplication_leaves_errors_unchanged(self, rng):
        conf = rng.uniform(0, 1, 200)
        correct = rng.random(200) < conf
        base = np.column_stack([conf, correct.astype(float)])
        doubled = np.vstack([base, base])
        a = calibration_report(base)
        b = calibration_report(doubled)
        assert a.ece == b.ece
        assert a.mce == b.mce

    def test_permutation_invariance_is_exact(self, rng):
        conf = rng.uniform(0, 1, 500)
        correct = (rng.random(500) < 0.5).astype(float)
        base = np.column_stack([conf, correct])
        shuffled = base[rng.permutation(500)]
        a = calibration_report(base)
        b = calibration_report(shuffled)
        assert a.ece == b.ece
        assert a.mce == b.mce
        assert a.bins == b.bins

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 1), st.booleans()), min_size=1, max_size=60),
           st.integers(1, 15))
    def test_ece_bounded_by_mce(self, raw, n_bins):
        arr = np.array([(c, float(ok)) for c, ok in raw])
        report = calibration_report(arr, n_bins=n_bins)
        assert 0.0 <= report.ece <= report.mce + 1e-15
        assert report.mce <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            calibration_report(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            calibration_report(np.array([[0.5, 1.0]]), n_bins=0)
        with pytest.raises(ValueError):
            calibration_report(np.array([[1.5, 1.0]]))
        with pytest.raises(ValueError):
            calibration_report(np.array([0.5, 1.0, 0.2]))

    @pytest.mark.parametrize("pairs", [
        [[math.nan, 1.0], [0.5, 0.0]],  # a NaN confidence passed the [0, 1] check
        [[0.5, math.nan], [0.5, 0.0]],  # a NaN correctness counted as wrong
        [[0.5, math.inf], [0.5, 0.0]],
    ])
    def test_non_finite_pairs_rejected(self, pairs):
        with pytest.raises(ValueError, match="finite"):
            calibration_report(pairs)


class TestReliabilityRows:
    def test_row_per_bin(self, tmp_path):
        report = calibration_report(pairs((0.65, 5, 3)), n_bins=10)
        lines = reliability_lines(report, tmp_path)
        assert len(lines) == 11  # header + 10 bins
        assert lines[0] == "lower,upper,count,mean_confidence,accuracy"

    def test_empty_bin_renders_empty_fields(self, tmp_path):
        report = calibration_report(pairs((0.65, 5, 3)), n_bins=4)
        lines = reliability_lines(report, tmp_path)
        assert lines[1].startswith("0.0,0.25,0,,")

    def test_round_trip_is_exact(self, tmp_path, rng):
        conf = rng.uniform(0, 1, 300)
        correct = (rng.random(300) < conf).astype(float)
        report = calibration_report(np.column_stack([conf, correct]), n_bins=10)
        parsed = parse_reliability_rows(reliability_lines(report, tmp_path))
        assert parsed == report.bins

    def test_csv_file_round_trip(self, tmp_path, rng):
        conf = rng.uniform(0, 1, 50)
        correct = (rng.random(50) < 0.7).astype(float)
        report = calibration_report(np.column_stack([conf, correct]))
        path = tmp_path / "reliability.csv"
        write_reliability_csv(report, path)
        parsed = parse_reliability_rows(path.read_text().splitlines())
        assert parsed == report.bins
