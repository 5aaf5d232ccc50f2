"""Beam database: construction, tiling invariants, and lookups."""

import csv
import math

import numpy as np
import pytest

from mmwloc import CoverageQuery, NetworkConfig
from mmwloc.coverage import overall_coverage
from mmwloc.dictionary import beam_boundaries, containing_beam, row_beamwidth
from mmwloc.experiments import dump_dictionary
from mmwloc.initial_access import delay_iterative
from mmwloc.localization import avg_beam_selection_error, avg_misalignment_error
from mmwloc.montecarlo import simulate_error_probabilities
from mmwloc.optimizer import ue_beamwidth_for_dictionary


class TestConstruction:
    def test_single_beam_covers_cell(self):
        assert beam_boundaries(37.5, 10.0, 1).tolist() == [0.0, 37.5]

    def test_two_beam_example(self):
        # theta_1 = pi/4 at d_a == h_b == 10; first boundary 10*tan(pi/8)
        assert row_beamwidth(10.0, 10.0, 2) == pytest.approx(math.pi / 8,
                                                             rel=1e-12)
        _, first, last = beam_boundaries(10.0, 10.0, 2)
        assert first == pytest.approx(10 * math.tan(math.pi / 8), rel=1e-12)
        assert first == pytest.approx(4.142135623730951, rel=1e-9)
        assert last == pytest.approx(10.0, rel=1e-12)

    def test_rows_tile_the_cell(self):
        for k in range(1, 25):
            bounds = beam_boundaries(55.0, 12.0, k)
            assert bounds.shape == (k + 1,)
            assert bounds[0] == 0.0 and bounds[-1] == 55.0  # pinned, exact
            assert np.all(np.diff(bounds) > 0.0)
            assert np.diff(bounds).sum() == pytest.approx(55.0, rel=1e-9)

    def test_widths_grow_toward_cell_edge(self):
        for k in range(2, 17):
            spans = np.diff(beam_boundaries(80.0, 10.0, k))
            assert np.all(np.diff(spans) > 0.0)

    def test_monotone_refinement(self):
        widest = [np.diff(beam_boundaries(60.0, 10.0, k)).max()
                  for k in range(1, 33)]
        assert all(a > b for a, b in zip(widest, widest[1:]))

    def test_array_of_cell_sizes_matches_one_call_each(self):
        d_a = np.array([3.0, 47.0, 212.0])
        bounds = beam_boundaries(d_a, 10.0, 5)
        assert bounds.shape == (3, 6)
        for row, one in zip(bounds, d_a):
            assert np.array_equal(row, beam_boundaries(one, 10.0, 5))

    def test_invalid_arguments(self):
        for args in [(0.0, 10.0, 4), (-1.0, 10.0, 4), (10.0, -1.0, 4),
                     (10.0, 0.0, 4), (10.0, 10.0, 0)]:
            with pytest.raises(ValueError):
                beam_boundaries(*args)


# Entry points that take a dictionary size k. 2.5 used to build a
# 4-edge row and a coverage of 0.7197; NaN to fail inside np.arange.
@pytest.mark.parametrize("call", [
    lambda k, cfg: beam_boundaries(30.0, 10.0, k),
    lambda k, cfg: CoverageQuery(threshold=1.0, k=k),
    lambda k, cfg: overall_coverage(1.0, k, 0.3, 0.5, cfg),
    lambda k, cfg: avg_beam_selection_error(k, 0.5, 0.3, cfg),
    lambda k, cfg: avg_misalignment_error(k, 0.3, 0.5, cfg),
    lambda k, cfg: ue_beamwidth_for_dictionary(k, cfg),
    lambda k, cfg: delay_iterative(k, 0.3, 1e-6),
    lambda k, cfg: simulate_error_probabilities(k, 0.5, 0.3, cfg, 100, 1),
], ids=["boundaries", "query", "overall", "avg-bs", "avg-ma", "ue-beam",
        "delay", "mc-errors"])
@pytest.mark.parametrize("k", [2.5, math.nan, math.inf, 0],
                         ids=["fraction", "nan", "inf", "zero"])
def test_non_integral_dictionary_size_rejected(call, k):
    with pytest.raises(ValueError, match="dictionary size must be >= 1"):
        call(k, NetworkConfig())


class TestLookup:
    def test_origin_maps_to_first_beam(self):
        for k in range(1, 9):
            assert containing_beam(0.0, 42.0, 10.0, k)[0] == 1

    def test_cell_edge_maps_to_last_beam(self):
        for k in range(1, 9):
            assert containing_beam(42.0, 42.0, 10.0, k)[0] == k

    def test_interior_example(self):
        assert containing_beam(5.0, 10.0, 10.0, 2)[0] == 2  # 4.1421 < 5

    def test_right_boundary_tie_goes_left(self):
        boundary = beam_boundaries(10.0, 10.0, 2)[1]
        assert containing_beam(boundary, 10.0, 10.0, 2)[0] == 1

    def test_lookup_consistent_with_intervals(self):
        # random points plus every edge and its 1-ulp neighbours, where the
        # angular rule and the tan-built edges round differently; a batch
        # of points must agree with one call per point
        rng = np.random.default_rng(17)
        for d_a, h_b, k in ((64.0, 9.0, 3), (64.0, 9.0, 7), (64.0, 9.0, 19),
                            (37.3, 10.0, 256), (212.0, 10.0, 1024)):
            bounds = beam_boundaries(d_a, h_b, k)
            edges = np.concatenate([bounds, np.nextafter(bounds, -np.inf),
                                    np.nextafter(bounds, np.inf)])
            points = np.concatenate([rng.uniform(0, d_a, size=40),
                                     edges[(edges >= 0.0) & (edges <= d_a)]])
            j, d_left, d_right = containing_beam(points, d_a, h_b, k)
            for d_hat, jj, left, right in zip(points, j, d_left, d_right):
                assert containing_beam(float(d_hat), d_a, h_b, k)[0] == jj
                assert (left, right) == (bounds[jj - 1], bounds[jj])
                assert left <= d_hat <= right
                assert d_hat > left or jj == 1  # ties go to the left beam


class TestCsvDump:
    def test_round_trippable_dump(self, tmp_path):
        path = dump_dictionary(NetworkConfig(), tmp_path, 25.0, 5)
        assert path == tmp_path / "beam_dictionary.csv"
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,j,theta_k,d_left,d_right"
        assert len(lines) == 1 + sum(range(1, 6))
        k, j, theta, left, right = lines[1].split(",")
        assert (int(k), int(j)) == (1, 1)
        assert float(right) == 25.0
        assert float(theta) == row_beamwidth(25.0, 10.0, 1)

    def test_rows_read_back_exactly(self, tmp_path):
        cfg = NetworkConfig(bs_density=0.02)   # mean cell size 25 m
        with open(dump_dictionary(cfg, tmp_path, None, 9)) as fh:
            rows = list(csv.DictReader(fh))
        for k in range(1, 10):
            row = [r for r in rows if int(r["k"]) == k]
            assert [int(r["j"]) for r in row] == list(range(1, k + 1))
            bounds = beam_boundaries(cfg.mean_cell_size, cfg.h_b, k)
            assert [float(r["d_left"]) for r in row] == bounds[:-1].tolist()
            assert [float(r["d_right"]) for r in row] == bounds[1:].tolist()
            assert {float(r["theta_k"]) for r in row} == {
                row_beamwidth(cfg.mean_cell_size, cfg.h_b, k)}

    def test_integral_float_n_max_accepted(self, tmp_path):
        a = dump_dictionary(NetworkConfig(), tmp_path, 25.0, 5.0).read_bytes()
        b = dump_dictionary(NetworkConfig(), tmp_path, 25.0, 5).read_bytes()
        assert a == b

    @pytest.mark.parametrize("cell_size, n_max", [
        (0.0, 4), (-1.0, 4), (math.nan, 4), (10.0, 0), (10.0, 2.5),
        (10.0, math.nan), (10.0, math.inf)])
    def test_invalid_arguments_write_nothing(self, tmp_path, cell_size,
                                             n_max):
        with pytest.raises(ValueError):
            dump_dictionary(NetworkConfig(), tmp_path, cell_size, n_max)
        assert not (tmp_path / "beam_dictionary.csv").exists()
