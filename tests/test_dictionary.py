"""Beam database: construction, tiling invariants, and lookups."""

import math

import numpy as np
import pytest

from mmwloc import build_dictionary
from mmwloc.dictionary import beam_boundaries, containing_beam, row_beamwidth


class TestConstruction:
    def test_single_beam_covers_cell(self):
        d = build_dictionary(37.5, 10.0, 1)
        (beam,) = d.row(1)
        assert beam.d_left == 0.0
        assert beam.d_right == pytest.approx(37.5, rel=1e-12)

    def test_two_beam_example(self):
        # theta_1 = pi/4 at d_a == h_b == 10; first boundary 10*tan(pi/8)
        d = build_dictionary(10.0, 10.0, 2)
        first, second = d.row(2)
        assert first.theta == pytest.approx(math.pi / 8, rel=1e-12)
        assert first.d_right == pytest.approx(10 * math.tan(math.pi / 8), rel=1e-12)
        assert first.d_right == pytest.approx(4.142135623730951, rel=1e-9)
        assert second.d_right == pytest.approx(10.0, rel=1e-12)

    def test_rows_tile_the_cell(self):
        d = build_dictionary(55.0, 12.0, 24)
        for k in range(1, 25):
            row = d.row(k)
            assert row[0].d_left == 0.0
            assert row[-1].d_right == pytest.approx(55.0, rel=1e-9)
            for left, right in zip(row, row[1:]):
                assert right.d_left == left.d_right  # adjacency, exact
            total = sum(b.coverage for b in row)
            assert total == pytest.approx(55.0, rel=1e-9)

    def test_widths_grow_toward_cell_edge(self):
        d = build_dictionary(80.0, 10.0, 16)
        for k in range(2, 17):
            spans = [b.coverage for b in d.row(k)]
            assert all(b > a for a, b in zip(spans, spans[1:]))

    def test_monotone_refinement(self):
        widest = [max(b.coverage for b in build_dictionary(60.0, 10.0, k).row(k))
                  for k in range(1, 33)]
        assert all(a > b for a, b in zip(widest, widest[1:]))

    def test_invalid_arguments(self):
        for args in [(0.0, 10.0, 4), (10.0, -1.0, 4), (10.0, 10.0, 0)]:
            with pytest.raises(ValueError):
                build_dictionary(*args)


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
        boundary = build_dictionary(10.0, 10.0, 2).row(2)[0].d_right
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
        d = build_dictionary(25.0, 10.0, 5)
        path = tmp_path / "db.csv"
        d.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,j,theta_k,d_left,d_right"
        assert len(lines) == 1 + sum(range(1, 6))
        k, j, theta, left, right = lines[1].split(",")
        assert (int(k), int(j)) == (1, 1)
        assert float(right) == pytest.approx(25.0)
        assert float(theta) == pytest.approx(row_beamwidth(25.0, 10.0, 1))
