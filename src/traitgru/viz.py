"""PCA projection of sentence embeddings and scatter export (CSV / SVG).

The two principal components come from one thin SVD of the centred
embeddings, with variances on the sample-covariance (1/(N-1)) scale;
each component's sign is normalized so its largest-magnitude entry is
positive.  The projection workflow picks tweets from the two tails of a
trait's user-score distribution, embeds them with a trained model, and
writes a 2-D scatter.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .data import split_lines, tweets_by_user
from .rng import SplitMix64


@dataclass
class PcaModel:
    mean: np.ndarray
    components: np.ndarray        # 2 x d, rows orthonormal
    explained_variance: np.ndarray
    zero_variance: tuple = ()     # indices of components with no variance left


@dataclass
class ScatterPoint:
    pc1: float
    pc2: float
    label: str  # "HIGH" or "LOW"
    text: str

    def __post_init__(self):
        if self.label not in ("HIGH", "LOW"):
            raise ValueError(f"label must be HIGH or LOW, got {self.label!r}")
        if not (math.isfinite(self.pc1) and math.isfinite(self.pc2)):
            raise ValueError("scatter coordinates must be finite")


def _fix_sign(v: np.ndarray) -> np.ndarray:
    return -v if v[np.argmax(np.abs(v))] < 0 else v


def pca_fit(embeddings) -> PcaModel:
    """Top two principal components of the sample, ordered by variance.

    One thin SVD of the centred rows: the components are the first two
    right singular vectors and the variances s**2 / (n - 1).  Rank
    deficiency is not fatal: a component with variance at or below
    1e-10 is reported with variance 0.0 and its index is recorded in
    zero_variance; its direction is still orthonormal to the others.
    """
    x = np.asarray(list(embeddings), dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("pca_fit needs at least two embedding vectors")
    n, d = x.shape
    if d < 2:
        raise ValueError(f"pca_fit needs dimension >= 2, got {d}")
    mean = x.mean(axis=0)
    _, s, vt = np.linalg.svd(x - mean, full_matrices=False)
    variances = s[:2] ** 2 / (n - 1)
    zero = tuple(j for j in range(2) if variances[j] <= 1e-10)
    variances[list(zero)] = 0.0
    return PcaModel(mean=mean, components=np.vstack([_fix_sign(v) for v in vt[:2]]),
                    explained_variance=variances, zero_variance=zero)


def pca_project(pca: PcaModel, v: np.ndarray) -> tuple:
    """Coordinates of v in the fitted component basis."""
    if v.shape != pca.mean.shape:
        raise ValueError(f"vector shape {v.shape} != fitted dimension {pca.mean.shape}")
    proj = pca.components @ (v - pca.mean)
    return tuple(float(p) for p in proj)


def select_extremes(tweets, trait: str, n_per_side: int, seed: int = 0,
                    tail: float = 0.25):
    """Seeded sample of tweets from the low and high tails of user scores.

    Tails hold the ceil(tail * n_users) lowest- and highest-scoring
    users (ties broken by first appearance).  Returns (low tweet
    indices, high tweet indices), each sorted ascending.
    """
    if n_per_side < 1:
        raise ValueError("n_per_side must be >= 1")
    if not (0.0 < tail <= 0.5):
        raise ValueError(f"tail must be in (0, 0.5], got {tail}")
    groups = tweets_by_user(tweets)
    # stable: ties keep first-seen order
    ranked = sorted(groups, key=lambda u: tweets[groups[u][0]].traits.get(trait))
    n_tail = max(1, math.ceil(tail * len(ranked)))
    if 2 * n_tail > len(ranked):
        raise ValueError("not enough users with distinct scores to form two tails")
    low_pool = sorted(i for u in ranked[:n_tail] for i in groups[u])
    high_pool = sorted(i for u in ranked[-n_tail:] for i in groups[u])
    if len(low_pool) < n_per_side or len(high_pool) < n_per_side:
        raise ValueError(
            f"need {n_per_side} tweets per tail, have {len(low_pool)} low / {len(high_pool)} high"
        )
    rng = SplitMix64(seed).derive("extremes")
    low_sel = sorted(rng.sample(low_pool, n_per_side))
    high_sel = sorted(rng.sample(high_pool, n_per_side))
    return low_sel, high_sel


def _escape_text(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n").replace("\r", "\\r")


def export_scatter_csv(points, path) -> None:
    """Columns pc1,pc2,label,text; text is escaped and is the last column,
    so readers should split each line on the first three commas only."""
    if not points:
        raise ValueError("no points to export")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("pc1,pc2,label,text\n")
        for p in points:
            fh.write(f"{p.pc1!r},{p.pc2!r},{p.label},{_escape_text(p.text)}\n")


def parse_scatter_csv(text: str) -> list:
    lines = split_lines(text)
    if not lines or lines[0] != "pc1,pc2,label,text":
        raise ValueError("not a scatter CSV")
    points = []
    for line in lines[1:]:
        pc1, pc2, label, txt = line.split(",", 3)
        points.append(ScatterPoint(float(pc1), float(pc2), label, txt))
    return points


_SVG_W, _SVG_H = 800, 600
_SVG_MARGIN = 50
_COLORS = {"LOW": "#1f77b4", "HIGH": "#d62728"}


# What XML 1.0 forbids even as a reference: the C0 controls other than
# tab, newline and carriage return, the surrogates and U+FFFE/U+FFFF.
_XML_FORBIDDEN = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _xml_escape(text: str) -> str:
    """text as XML character data, each character XML 1.0 forbids as U+FFFD."""
    text = _XML_FORBIDDEN.sub("\ufffd", text)
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))


def export_scatter_svg(points, path) -> None:
    """Self-contained 800x600 SVG; byte-deterministic for fixed input."""
    if not points:
        raise ValueError("no points to export")
    xs = [p.pc1 for p in points]
    ys = [p.pc2 for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def to_canvas(x, y):
        cx = _SVG_MARGIN + (x - x_lo) / x_span * (_SVG_W - 2 * _SVG_MARGIN)
        cy = _SVG_H - _SVG_MARGIN - (y - y_lo) / y_span * (_SVG_H - 2 * _SVG_MARGIN)
        return cx, cy

    ox, oy = to_canvas(min(max(0.0, x_lo), x_hi), min(max(0.0, y_lo), y_hi))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{ox:.2f}" y1="{_SVG_MARGIN}" x2="{ox:.2f}" y2="{_SVG_H - _SVG_MARGIN}" '
        f'stroke="#cccccc" stroke-width="1"/>',
        f'<line x1="{_SVG_MARGIN}" y1="{oy:.2f}" x2="{_SVG_W - _SVG_MARGIN}" y2="{oy:.2f}" '
        f'stroke="#cccccc" stroke-width="1"/>',
    ]
    for p in points:
        cx, cy = to_canvas(p.pc1, p.pc2)
        parts.append(
            f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="4" fill="{_COLORS[p.label]}" '
            f'fill-opacity="0.7"><title>{_xml_escape(p.text)}</title></circle>'
        )
    parts.append("</svg>")
    with open(path, "wb") as fh:
        fh.write("\n".join(parts).encode("utf-8"))


def export_scatter(points, path, fmt: str) -> None:
    if fmt == "csv":
        export_scatter_csv(points, path)
    elif fmt == "svg":
        export_scatter_svg(points, path)
    else:
        raise ValueError(f"unknown scatter format {fmt!r}")
