import xml.etree.ElementTree as ET

import numpy as np
import pytest

from traitgru.data import TraitScores, Tweet
from traitgru.viz import (ScatterPoint, export_scatter, parse_scatter_csv,
                          pca_fit, pca_project, select_extremes)


def dense_pca_oracle(x, n_components=2):
    """Reference eigendecomposition of the sample covariance."""
    x = np.asarray(x, dtype=np.float64)
    mean = x.mean(axis=0)
    xc = x - mean
    cov = (xc.T @ xc) / (x.shape[0] - 1)
    w, v = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1][:n_components]
    comps = []
    for j in order:
        c = v[:, j]
        if c[np.argmax(np.abs(c))] < 0:
            c = -c
        comps.append(c)
    return mean, np.vstack(comps), w[order]


class TestPcaFit:
    def test_collinear_points(self):
        pts = [np.array([t, t]) for t in (-2.0, -1.0, 0.5, 3.0)]
        pca = pca_fit(pts)
        expected = np.array([1.0, 1.0]) / np.sqrt(2.0)
        np.testing.assert_allclose(pca.components[0], expected, atol=1e-10)
        assert pca.explained_variance[1] == 0.0
        assert pca.zero_variance == (1,)

    def test_centered_isotropic_pair(self):
        pca = pca_fit([np.array([1.0, 0.0]), np.array([-1.0, 0.0])])
        np.testing.assert_allclose(pca.mean, [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(pca.components[0], [1.0, 0.0], atol=1e-10)

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(5, 4))
        pca = pca_fit(x)
        _, comps, var = dense_pca_oracle(x)
        np.testing.assert_allclose(pca.components, comps, atol=1e-8)
        np.testing.assert_allclose(pca.explained_variance, var, atol=1e-8)

    def test_many_random_instances_match_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            d = int(rng.integers(2, 9))
            n = int(rng.integers(3, 16))
            x = rng.normal(size=(n, d)) * rng.uniform(0.5, 2.0)
            pca = pca_fit(x)
            _, comps, var = dense_pca_oracle(x)
            np.testing.assert_allclose(pca.components, comps, atol=1e-8)
            np.testing.assert_allclose(pca.explained_variance, var, atol=1e-8)

    def test_orthonormality_and_variance_order(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(20, 6))
        pca = pca_fit(x)
        gram = pca.components @ pca.components.T
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-10)
        assert pca.explained_variance[0] >= pca.explained_variance[1] >= 0

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            pca_fit([np.zeros(3)])
        with pytest.raises(ValueError):
            pca_fit([np.zeros(1), np.ones(1)])

    def test_close_top_variances_match_oracle_in_order(self):
        # 32 rows in 512-d with variances 1, 1 - 1e-5 and 0.5 along
        # orthonormal directions: the top two differ by 1e-5 only.
        rng = np.random.default_rng(19)
        dirs, _ = np.linalg.qr(rng.normal(size=(512, 3)))
        coef = rng.normal(size=(32, 3))
        coef, _ = np.linalg.qr(coef - coef.mean(axis=0))
        coef *= np.sqrt(np.array([1.0, 1.0 - 1e-5, 0.5]) * 31)
        x = coef @ dirs.T + rng.normal(size=512)
        pca = pca_fit(x)
        _, comps, var = dense_pca_oracle(x)
        np.testing.assert_allclose(pca.components, comps, atol=1e-8)
        np.testing.assert_allclose(pca.explained_variance, var, atol=1e-8)
        assert pca.explained_variance[0] > pca.explained_variance[1]


class TestPcaProject:
    def test_mean_projects_to_origin(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(10, 3))
        pca = pca_fit(x)
        assert pca_project(pca, pca.mean) == (0.0, 0.0)

    def test_sample_projections_zero_mean(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(15, 4))
        pca = pca_fit(x)
        projs = np.array([pca_project(pca, v) for v in x])
        np.testing.assert_allclose(projs.mean(axis=0), [0.0, 0.0], atol=1e-10)

    def test_reconstruction_variance_identity(self):
        # residual SS == total SS - (N-1) * explained variance
        rng = np.random.default_rng(6)
        x = rng.normal(size=(12, 5))
        pca = pca_fit(x)
        xc = x - pca.mean
        total_ss = float(np.sum(xc * xc))
        residual_ss = 0.0
        for v in x:
            proj = np.asarray(pca_project(pca, v))
            recon = pca.mean + pca.components.T @ proj
            residual_ss += float(np.sum((v - recon) ** 2))
        explained_ss = (x.shape[0] - 1) * float(np.sum(pca.explained_variance))
        assert abs(residual_ss - (total_ss - explained_ss)) < 1e-8

    def test_collinear_fixture_pc2_zero(self):
        pts = [np.array([t, 2.0 * t]) for t in (-1.0, 0.0, 1.0, 2.5)]
        pca = pca_fit(pts)
        for v in pts:
            _, pc2 = pca_project(pca, v)
            assert abs(pc2) < 1e-10

    def test_dimension_mismatch(self):
        pca = pca_fit([np.zeros(3), np.ones(3)])
        with pytest.raises(ValueError):
            pca_project(pca, np.zeros(4))


def mk_tweet(user, text, ext):
    return Tweet(user, text, tuple(text.split()), TraitScores(ext, 0, 0, 0, 0))


class TestSelectExtremes:
    def corpus(self):
        tweets = []
        for u, ext in enumerate([-0.4, -0.3, -0.1, 0.0, 0.1, 0.2, 0.35, 0.45]):
            for t in range(4):
                tweets.append(mk_tweet(f"u{u}", f"tweet {t} of {u}", ext))
        return tweets

    def test_two_tweets_n_one(self):
        tweets = [mk_tweet("a", "low text", -0.3), mk_tweet("b", "high text", 0.4)]
        low, high = select_extremes(tweets, "ext", 1, seed=0)
        assert low == [0] and high == [1]

    def test_tails_respect_scores(self):
        tweets = self.corpus()
        low, high = select_extremes(tweets, "ext", 4, seed=1)
        assert all(tweets[i].traits.ext <= -0.3 for i in low)
        assert all(tweets[i].traits.ext >= 0.35 for i in high)

    def test_seeded_and_reproducible(self):
        tweets = self.corpus()
        assert select_extremes(tweets, "ext", 3, seed=5) == \
            select_extremes(tweets, "ext", 3, seed=5)
        assert select_extremes(tweets, "ext", 3, seed=5) != \
            select_extremes(tweets, "ext", 3, seed=6)

    def test_too_few_tweets_rejected(self):
        tweets = self.corpus()
        with pytest.raises(ValueError, match="per tail"):
            select_extremes(tweets, "ext", 9, seed=0)

    def test_single_user_rejected(self):
        tweets = [mk_tweet("a", "one", 0.1), mk_tweet("a", "two", 0.1)]
        with pytest.raises(ValueError, match="distinct"):
            select_extremes(tweets, "ext", 1, seed=0)


class TestExport:
    def points(self, n=3):
        return [ScatterPoint(pc1=float(i), pc2=float(-i), label="LOW" if i % 2 else "HIGH",
                             text=f"text {i}, with commas\tand tabs")
                for i in range(n)]

    def test_csv_single_point_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        export_scatter(self.points(1), path, "csv")
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 2  # header + 1 data row

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "pts.csv"
        pts = self.points(5)
        export_scatter(pts, path, "csv")
        parsed = parse_scatter_csv(path.read_text(encoding="utf-8"))
        assert len(parsed) == 5
        assert parsed[0].pc1 == pts[0].pc1 and parsed[2].label == pts[2].label

    def test_csv_lines_end_only_at_newline(self, tmp_path):
        # Characters str.splitlines would break at stay inside the text.
        path = tmp_path / "pts.csv"
        pts = [ScatterPoint(0.5, -0.5, "LOW", "form\x0cfeed, next\x85line"),
               ScatterPoint(1.5, 2.5, "HIGH", "line\u2028separator\x1e")]
        export_scatter(pts, path, "csv")
        assert parse_scatter_csv(path.read_text(encoding="utf-8")) == pts

    def test_svg_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        export_scatter(self.points(4), a, "svg")
        export_scatter(self.points(4), b, "svg")
        assert a.read_bytes() == b.read_bytes()

    def test_svg_marker_count(self, tmp_path):
        rng = np.random.default_rng(9)
        pts = [ScatterPoint(float(x), float(y), "HIGH" if x > 0 else "LOW", "t")
               for x, y in rng.normal(size=(100, 2))]
        path = tmp_path / "big.svg"
        export_scatter(pts, path, "svg")
        svg = path.read_text(encoding="utf-8")
        assert svg.count("<circle") == 100
        assert svg.count("<line") == 2  # the two axis lines

    def test_svg_escapes_markup(self, tmp_path):
        pts = [ScatterPoint(0.0, 0.0, "LOW", 'a <b> & "c"')]
        path = tmp_path / "esc.svg"
        export_scatter(pts, path, "svg")
        svg = path.read_text(encoding="utf-8")
        assert "<b>" not in svg and "&lt;b&gt;" in svg

    def test_svg_replaces_characters_xml_forbids(self, tmp_path):
        text = "a\x01b\x1f c\x7f\ud800\ufffe\tz"
        path = tmp_path / "ctl.svg"
        export_scatter([ScatterPoint(0.0, 0.0, "LOW", text)], path, "svg")
        root = ET.parse(path).getroot()
        title = root.find(".//{http://www.w3.org/2000/svg}title")
        assert title.text == "a\ufffdb\ufffd c\x7f\ufffd\ufffd\tz"

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_scatter(self.points(1), tmp_path / "x.bin", "png")

    def test_empty_points_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_scatter([], tmp_path / "x.csv", "csv")


def test_scatter_point_validation():
    with pytest.raises(ValueError):
        ScatterPoint(0.0, 0.0, "MEDIUM", "t")
    with pytest.raises(ValueError):
        ScatterPoint(float("nan"), 0.0, "LOW", "t")
