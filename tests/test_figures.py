"""SVG output: structure, determinism, and coordinate bounds."""

import re

import numpy as np
import pytest

from dimred import ParameterError
from dimred.figures import PALETTE, cluster_letter, render_silhouette_plot, render_stacked_radar
from dimred.kmeans import kmeans_fit

COORD_ATTR = re.compile(r'\b(?:x|y|x1|y1|x2|y2|cx|cy)="(-?[0-9.]+)"')
POINTS_ATTR = re.compile(r'points="([^"]+)"')


def three_cluster_fit():
    rng = np.random.default_rng(0)
    centers = np.array([[0.0, 0.0], [6.0, 6.0], [0.0, 6.0]])
    data = np.vstack([c + rng.normal(scale=0.4, size=(8, 2)) for c in centers])
    return kmeans_fit(data, 3, seed=1, restarts=5)


def all_coordinates(svg_text):
    xs, ys = [], []
    for match in COORD_ATTR.finditer(svg_text):
        attr = match.group(0).split("=")[0]
        value = float(match.group(1))
        (ys if attr.startswith(("y", "cy")) else xs).append(value)
    for match in POINTS_ATTR.finditer(svg_text):
        for pair in match.group(1).split():
            x, y = pair.split(",")
            xs.append(float(x))
            ys.append(float(y))
    return xs, ys


class TestSilhouettePlot:
    def test_three_cluster_bands_and_mean_line(self, tmp_path):
        fit = three_cluster_fit()
        path = tmp_path / "sil.svg"
        render_silhouette_plot(fit, path)
        svg = path.read_text()
        assert svg.startswith("<?xml")
        assert 'viewBox="0 0 800 600"' in svg
        # one rect per sample plus the background
        assert svg.count("<rect") == len(fit.sample_silhouettes) + 1
        # three distinct band colors
        used = {color for color in PALETTE if f'fill="{color}"' in svg}
        assert len(used) == 3
        # dashed mean line present
        assert "stroke-dasharray" in svg

    def test_negative_value_extends_left_of_zero(self, tmp_path):
        fit = three_cluster_fit()
        forced = type(fit)(
            labels=fit.labels, centroids=fit.centroids, inertia=fit.inertia,
            sample_silhouettes=np.where(
                np.arange(len(fit.sample_silhouettes)) == 0, -0.5,
                fit.sample_silhouettes),
            mean_silhouette=fit.mean_silhouette, k=fit.k,
        )
        path = tmp_path / "neg.svg"
        render_silhouette_plot(forced, path)
        svg = path.read_text()
        zero_x = 70.0 + 0.5 * 700.0
        bars = [m for m in re.finditer(r'<rect x="([0-9.]+)" y="[0-9.]+" '
                                       r'width="([0-9.]+)"', svg)]
        assert any(float(m.group(1)) < zero_x - 1.0 and float(m.group(2)) > 1.0
                   for m in bars)

    def test_all_singletons_zero_bars(self, tmp_path):
        data = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [4.0, 4.0]])
        fit = kmeans_fit(data, 4, seed=0, restarts=2)
        path = tmp_path / "deg.svg"
        render_silhouette_plot(fit, path)
        bar_widths = [
            float(m.group(1))
            for m in re.finditer(
                r'<rect [^>]*width="([0-9.]+)" [^>]*fill="#(?!ffffff)', path.read_text())
        ]
        assert len(bar_widths) == 4
        assert all(w == 0.0 for w in bar_widths)

    def test_byte_identical_reruns(self, tmp_path):
        fit = three_cluster_fit()
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        render_silhouette_plot(fit, a)
        render_silhouette_plot(fit, b)
        assert a.read_bytes() == b.read_bytes()

    def test_coordinates_inside_viewbox(self, tmp_path):
        fit = three_cluster_fit()
        path = tmp_path / "c.svg"
        render_silhouette_plot(fit, path)
        xs, ys = all_coordinates(path.read_text())
        assert xs and ys
        assert min(xs) >= 0.0 and max(xs) <= 800.0
        assert min(ys) >= 0.0 and max(ys) <= 600.0


class TestStackedRadar:
    def test_full_radius_octagon(self, tmp_path):
        path = tmp_path / "radar.svg"
        render_stacked_radar([f"f{i}" for i in range(8)], np.ones((1, 8)), 0, path)
        svg = path.read_text()
        polygons = POINTS_ATTR.findall(svg)
        # 4 grid rings + 1 data polygon
        assert len(polygons) == 5
        # the data polygon coincides with the outermost ring
        assert polygons[-1] == polygons[3]
        data_points = [tuple(map(float, p.split(","))) for p in polygons[-1].split()]
        radii = [np.hypot(x - 400.0, y - 315.0) for x, y in data_points]
        assert all(abs(r - 210.0) < 0.05 for r in radii)

    def test_feature_names_on_axes(self, tmp_path):
        labels = ["Income", "Employment", "Health", "Crime", "Living", "Eductn", "Barrier"]
        path = tmp_path / "named.svg"
        render_stacked_radar(labels, np.full((3, 7), 0.5), 1, path)
        svg = path.read_text()
        for label in labels:
            assert f">{label}<" in svg

    def test_two_identical_rows_coincide(self, tmp_path):
        row = np.array([[0.2, 0.8, 0.5, 0.9]])
        path = tmp_path / "dup.svg"
        render_stacked_radar(list("abcd"), np.vstack([row, row]), 2, path)
        polygons = POINTS_ATTR.findall(path.read_text())
        assert polygons[-1] == polygons[-2]

    # in check order; a 2-axis case that a check above the 3-axes one rejects pins the order
    @pytest.mark.parametrize("labels, rows, message", [
        ("abc", np.ones(3), "rows must be a 2-D matrix"),
        ("ab", np.empty(0), "rows must be a 2-D matrix"),
        ("abc", np.empty((0, 3)), "rows must be nonempty"),
        ("ab", np.empty((0, 3)), "rows must be nonempty"),
        ("abc", np.ones((1, 2)), "rows have 2 values for 3 axes"),
        ("abc", np.full((1, 3), 1.5), r"row values must lie in \[0, 1\]"),
        ("abc", np.full((1, 3), -1e-9), r"row values must lie in \[0, 1\]"),
        ("ab", np.full((1, 2), 1.5), r"row values must lie in \[0, 1\]"),
        ("ab", np.array([[0.1, 0.2]]), "a radar chart needs at least 3 axes"),
        ("", np.empty((1, 0)), "a radar chart needs at least 3 axes"),
    ])
    def test_rejected_inputs_write_nothing(self, labels, rows, message, tmp_path):
        path = tmp_path / "no.svg"
        with pytest.raises(ParameterError, match=f"^{message}$"):
            render_stacked_radar(list(labels), rows, 0, path)
        assert not path.exists()

    def test_values_within_the_slack_draw_as_their_bounds(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        render_stacked_radar(list("abc"), [[-1e-13, 0.5, 1.0 + 1e-13]], 0, a)
        render_stacked_radar(list("abc"), [[0.0, 0.5, 1.0]], 0, b)
        assert a.read_bytes() == b.read_bytes()

    def test_byte_identical_reruns(self, tmp_path):
        rng = np.random.default_rng(9)
        labels, rows = [f"ax{i}" for i in range(5)], rng.uniform(size=(6, 5))
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        render_stacked_radar(labels, rows, 3, a)
        render_stacked_radar(labels, rows, 3, b)
        assert a.read_bytes() == b.read_bytes()

    def test_coordinates_inside_viewbox(self, tmp_path):
        rng = np.random.default_rng(10)
        path = tmp_path / "c.svg"
        render_stacked_radar([f"axis label {i}" for i in range(9)], rng.uniform(size=(4, 9)), 1,
                             path)
        xs, ys = all_coordinates(path.read_text())
        assert min(xs) >= 0.0 and max(xs) <= 800.0
        assert min(ys) >= 0.0 and max(ys) <= 600.0

    def test_fill_opacity_fixed(self, tmp_path):
        path = tmp_path / "op.svg"
        render_stacked_radar(list("abc"), np.array([[0.3, 0.4, 0.5]]), 0, path)
        assert 'fill-opacity="0.35"' in path.read_text()


class TestClusterLetter:
    def test_letters_then_numbered_names(self):
        assert [cluster_letter(i) for i in (0, 1, 25, 26, 27)] == ["A", "B", "Z", "C26", "C27"]
