"""Constructive shattering witnesses for planar 1NN prototype classifiers.

Two arrangements are built here, plus the generic polytope-to-prototypes
reflection trick they both rest on.

The ``takacs`` arrangement places 2N+1 points on a circle and one at the
centre. Any labelling is realised by cutting each run of off-centre-label
circle points with a chord (two chords when a run subtends too wide an
arc), assembling the chords into a polytope around the centre, and
reflecting the centre across every facet: at most N+1 prototypes.

The ``gunn`` arrangement is a regular (2m-1)-gon plus two interior points
straddling the centre on the axis perpendicular to the direction of a
marked vertex. Labellings where the interior pair agree reduce to the
circle construction with an (m-1)-facet budget. Labellings where they
disagree use a strip between two parallel lines that captures the
minority interior point together with one or two minority vertices,
realised by one minority prototype flanked by two majority reflections,
all inside the circumcircle; every remaining minority vertex (or adjacent
pair) is cut off by one line and claimed by reflecting the nearer
majority prototype across it, landing outside the circumcircle. Unused
prototype budget is parked far away. At most m prototypes in every case.

All free placements are fixed deterministically with explicit clearances
so the verification margins stay fat.

What depends only on the arrangement is built once per ``Arrangement``,
in its private plan table (``_planned``), and a witness is assembled from
its rows. The disc construction tables the origin's reflections across
the chords of each maximal run of cut-off polygon vertices under
``("run", first, length)``, split chords included and slack-checked once,
and the padding reflections by count. A run's chords depend on the run
alone: each chord's outward direction ``u`` points into the run, so of
all points outside the run the largest ``x @ u`` is at one of the run's
two neighbours (or at a point off the polygon), which every labelling
with that maximal run keeps. The gunn strips are tabled by the indices
they hold, the cut prototypes by strip, vertex group and ``mu``, the cut
groups by the vertex set they split, the strip partners by vertex and
minority interior point, the vertex nearest each interior point, and the
parked prototypes by count. Every key fixes every input of what it
stores, so the witnesses are bit-identical to building each one afresh.
A (2m-1)-gon has at most (2m-1)(2m-2) + 1 maximal runs: 157 at gunn m=7,
all of which its sweep tables, beside 54 strips, 670 cuts and 1,329
cut-group splits.

Both builders read a labelling only through which points share a label
with one reference point, so the witness of the complement ``~L`` is the
witness of ``L`` with every label negated, bit for bit. Each witness is
therefore built once per complementary pair (``_paired``): the first
member asked for parks a private copy of its prototypes in the plan
table, and its complement takes that copy with the labels negated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .classifier import DEFAULT_MU, LabeledPrototypeSet, Labeling, check_int, prototype_distances
from .errors import (
    ConstructionInfeasibleError,
    InvalidInputError,
    InvalidWitnessError,
    UnsupportedParametersError,
)
from .geometry import (
    DEFAULT_TOL,
    ConvexPolytope,
    Halfspace,
    as_point,
    regular_polygon_vertices,
)

# All fractions of the circumradius R.
_SPLIT_GAP = 0.02    # below this chord clearance an arc is cut with two chords
_CLEAR_MIN = 1e-3    # minimum separation clearance accepted by the builders
_PAD_OFFSET = 2.0    # distance of padding facets from the centre
_PARK_RADIUS = 100.0 # distance of parked surplus prototypes
_RIM = 0.99          # strip prototypes must stay inside this fraction of R
_PUSH_OUT = 1.02     # reflected cut prototypes are pushed at least this far out

# The radii an arrangement may have. Everything is placed at fractions of R,
# but the prototype-distinctness and strict-interiority checks use the
# absolute geometry.DEFAULT_TOL, which a much smaller R undercuts, and a
# much larger R overflows the squared distances.
_RADIUS_MIN, _RADIUS_MAX = 1e-6, 1e6

_TILT_RANGE = 0.5    # radians scanned when a strip needs tilting
_TILT_STEPS = 251


def _takacs_points(n_facets: int, radius: float) -> np.ndarray:
    """The (2N+1)-gon's vertices from angle 0, then the centre."""
    return np.vstack([regular_polygon_vertices(2 * n_facets + 1, radius), np.zeros((1, 2))])


def _gunn_points(m: int, radius: float) -> np.ndarray:
    """The (2m-1)-gon's vertices from its apex at angle pi/2, then the pair (delta, 0), (-delta, 0)."""
    verts = regular_polygon_vertices(2 * m - 1, radius, phase=math.pi / 2.0)
    delta = inner_pair_offset(m, radius)
    return np.vstack([verts, [[delta, 0.0], [-delta, 0.0]]])


class _Layout(NamedTuple):
    least: int                # the least param
    points: Callable | None   # (param, radius) -> the layout's points; None when any points will do
    derive: Callable          # param -> (point count or None, polygon vertex count, special, budget)


_LAYOUTS = {
    "takacs": _Layout(2, _takacs_points,
                      lambda p: (2 * p + 2, 2 * p + 1, {"center_index": 2 * p + 1}, p + 1)),
    "gunn": _Layout(4, _gunn_points,
                    lambda p: (2 * p + 1, 2 * p - 1, {"apex_index": 0, "inner_indices": [2 * p - 1, 2 * p]}, p)),
    "search": _Layout(1, None, lambda p: (None, 0, {}, p)),
}


def _check_radius(radius) -> None:
    """Raise unless ``radius`` is a number in ``[_RADIUS_MIN, _RADIUS_MAX]`` that is not a bool."""
    if isinstance(radius, (bool, np.bool_)) or not _RADIUS_MIN <= radius <= _RADIUS_MAX:
        raise InvalidInputError(f"radius must be in [{_RADIUS_MIN:.0e}, {_RADIUS_MAX:.0e}], got {radius!r}")


def _check_param(kind: str, param) -> None:
    """Raise unless ``param`` is an integer >= 1 and no less than the least param of ``kind``."""
    check_int("param", param, 1)
    least = _LAYOUTS[kind].least
    if param < least:
        raise UnsupportedParametersError(f"a {kind} arrangement needs param >= {least}, got {param}")


def point_count(kind: str, param) -> int | None:
    """The number of points of the ``kind`` arrangement of ``param`` (None for search), building none.

    ``param`` is checked as ``Arrangement`` checks it.
    """
    _check_param(kind, param)
    return _LAYOUTS[kind].derive(param)[0]


@dataclass(frozen=True, eq=False)
class Arrangement:
    """A concrete point set to be shattered: its kind, param, radius and points.

    ``_LAYOUTS[kind]`` defines the kind once: its least param, what
    ``param`` derives (point count, None for any; polygon vertex count;
    ``special`` indices; prototype ``budget``) and the points ``(param,
    radius)`` build. The derivation runs once, here, and its last three
    values are stored as fields. takacs N >= 2 is the (2N+1)-gon then the
    centre, N+1 prototypes; gunn m >= 4 the (2m-1)-gon from its apex then
    the interior pair, m prototypes; search any points, m >= 1 prototypes.
    Checked once here: a known kind, a radius in ``[1e-6, 1e6]`` that is
    not a bool (stored as a float), an integer param no less than the
    kind's least (``UnsupportedParametersError`` below it), points forming
    a finite, non-empty (n, d) array of the layout's point count, and
    takacs or gunn points that are the layout's (same shape, every
    coordinate within ``1e-12 * radius``, as ``cos`` and ``sin`` may differ
    by an ulp between platforms).
    """

    kind: str             # "takacs" | "gunn" | "search"
    points: np.ndarray    # (n, d)
    radius: float
    param: int            # N for takacs, m for gunn and search
    n_vertices: int = field(init=False, repr=False)   # polygon vertices: 2N+1 takacs, 2m-1 gunn, 0 search
    special: dict = field(init=False, repr=False)     # special point indices; shared, so never mutate it
    budget: int = field(init=False, repr=False)       # most prototypes a witness may use: N+1 takacs, else m
    # arrangement-determined construction geometry, filled lazily (see _planned)
    _plans: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.kind not in _LAYOUTS:
            raise InvalidInputError(f"unknown arrangement kind {self.kind!r}")
        _check_radius(self.radius)
        _check_param(self.kind, self.param)
        object.__setattr__(self, "radius", float(self.radius))   # a certificate writes both as JSON
        object.__setattr__(self, "param", int(self.param))
        # a private read-only copy: the plan table is only valid for fixed points
        points = np.array(self.points, dtype=np.float64)
        if points.ndim != 2 or 0 in points.shape or not np.isfinite(points).all():
            raise InvalidInputError(f"points must be a finite, non-empty (n, d) array, got shape {points.shape}")
        points.setflags(write=False)
        object.__setattr__(self, "points", points)
        # the budget is read from param, so param must be the one the points were built for;
        # the count is checked first, so a huge param is refused before its layout is built
        layout = _LAYOUTS[self.kind]
        size, *derived = layout.derive(self.param)
        for name, value in zip(("n_vertices", "special", "budget"), derived, strict=True):
            object.__setattr__(self, name, value)
        if size not in (None, self.n):
            raise InvalidInputError(
                f"a {self.kind} arrangement with param {self.param} has {size} points, not {self.n}"
            )
        if layout.points is not None:
            built = layout.points(self.param, self.radius)
            if built.shape != points.shape or np.abs(built - points).max() > 1e-12 * self.radius:
                raise InvalidInputError(f"points are not the {self.kind} arrangement of param {self.param} "
                                        f"and radius {self.radius!r}")

    @property
    def n(self) -> int:
        return self.points.shape[0]


def _arranged(kind: str, param: int, radius: float) -> Arrangement:
    """The ``kind`` arrangement of ``param`` and ``radius``, its points built by the layout.

    ``radius`` and ``param`` are checked as ``Arrangement`` checks them
    before the points are built, so a radius or param out of range is
    reported as such, not as a polygon it cannot build.
    """
    _check_radius(radius)
    _check_param(kind, param)
    # built from the float the arrangement stores, not at a NumPy scalar's own precision
    return Arrangement(kind=kind, points=_LAYOUTS[kind].points(param, float(radius)), radius=radius, param=param)


def _planned(arrangement: Arrangement, key: tuple, build):
    """``build()``, computed once per arrangement and ``key``.

    The key must fix every input ``build`` reads beyond the arrangement
    itself, so a table hit returns exactly the value a fresh build would.
    Callers copy what they return into new arrays; nothing hands a tabled
    array to a witness. The one exception is the pair entry of
    ``_paired``, whose parked copy is handed to a witness only once it has
    left the table.
    """
    plans = arrangement._plans
    if key not in plans:
        plans[key] = build()
    return plans[key]


def _paired(arrangement: Arrangement, labeling: Labeling, mu: float, build) -> LabeledPrototypeSet:
    """``build(arrangement, labeling, mu)``, built once per complementary pair ``{L, ~L}``.

    ``build`` must read the labelling only through which points share a
    label with a reference point, so that its witness of ``~L`` is its
    witness of ``L`` with every label negated. The first member asked for
    is built and parks ``(bits, prototypes, negated labels)``, private
    copies, under ``("pair", min(L, ~L), mu)``. The complement pops the
    entry and wraps the copy, which no one else holds once it has left the
    table, without ``check_prototype_stack``: that verdict reads only the
    prototypes, which passed when the first member was built. The same
    labelling asked for again is rebuilt, never negated. A build that
    raises parks nothing.
    """
    bits = labeling.bits
    other = bits ^ ((1 << labeling.size) - 1)
    key = ("pair", min(bits, other), mu)
    plans = arrangement._plans
    entry = plans.get(key)
    if entry is not None and entry[0] == other:
        del plans[key]
        return LabeledPrototypeSet.from_checked_stack([entry[1]], [entry[2]])[0]
    witness = build(arrangement, labeling, mu)
    plans[key] = (bits, witness.prototypes.copy(), -witness.labels)
    return witness


def takacs_arrangement(n_facets: int, radius: float = 1.0) -> Arrangement:
    """2N+1 equally spaced circle points plus the centre; 2N+2 points total."""
    return _arranged("takacs", n_facets, radius)


def centre_to_longest_diagonal(n_vertices: int, radius: float = 1.0) -> float:
    """Distance from the centre of a regular odd n-gon to a longest diagonal."""
    if n_vertices < 5 or n_vertices % 2 == 0:
        raise InvalidInputError("defined for odd n >= 5")
    return radius * math.sin(math.pi / (2 * n_vertices))


def inner_pair_offset(m: int, radius: float = 1.0) -> float:
    """Half the centre-to-longest-diagonal distance of the (2m-1)-gon.

    Placing the two interior points at this distance guarantees neither is
    separated from the centre by any diagonal.
    """
    return 0.5 * centre_to_longest_diagonal(2 * m - 1, radius)


def strip_width(m: int, radius: float = 1.0) -> float:
    """Distance from the centre to the wider strip chord: R sin(3 pi / (2(2m-1))).

    This is the worst-case width of the two-parallel-line strip used in the
    unequal-interior-label construction; it decreases in m and is below
    0.63 R for every m >= 4, which is what keeps all three strip prototypes
    inside the circumcircle.
    """
    if m < 4:
        raise UnsupportedParametersError("strip width defined for m >= 4")
    return radius * math.sin(3.0 * math.pi / (2.0 * (2 * m - 1)))


def gunn_arrangement(m: int, radius: float = 1.0) -> Arrangement:
    """Regular (2m-1)-gon with apex at angle pi/2 plus two interior points.

    The interior pair sits at (+delta, 0) and (-delta, 0) with delta half
    the centre-to-longest-diagonal distance; 2m+1 points total.
    """
    return _arranged("gunn", m, radius)


def polytope_to_prototypes(
    polytope: ConvexPolytope, interior, inside_label: int, tol: float = DEFAULT_TOL
) -> LabeledPrototypeSet:
    """Prototype set whose decision region for ``inside_label`` is ``polytope``.

    One prototype at ``interior`` carries ``inside_label``; each facet
    contributes the reflection of ``interior`` across its hyperplane with
    the opposite label. The Voronoi cell of the interior prototype is then
    exactly the polytope, so 1NN classification agrees with membership.
    """
    interior = as_point(interior)
    if inside_label not in (-1, 1):
        raise InvalidInputError("inside_label must be +1 or -1")
    if interior.size != polytope.dim:
        raise InvalidInputError("interior point dimension mismatch")
    values = polytope.side_values(interior[None, :])[0]
    slack = -values
    if slack.min() <= tol:
        raise InvalidWitnessError(
            f"interior point violates strict interiority (slack {slack.min():.3e})"
        )
    # every facet's reflection at once, in the operation order of geometry.reflect
    reflections = interior - 2.0 * values[:, None] * polytope.normals
    labels = [inside_label] + [-inside_label] * polytope.n_facets
    return LabeledPrototypeSet(np.vstack([interior, reflections]), np.array(labels))


# ---------------------------------------------------------------------------
# chord machinery shared by the circle constructions


def _circular_runs(mask: list[bool]) -> list[tuple[int, int]]:
    """Maximal runs of True in circular index order, as ``(first, length)`` by ascending ``first``.

    A run may wrap past the last index; all True is the one run ``(0, n)``.
    """
    n = len(mask)
    starts = [i for i in range(n) if mask[i] and not mask[i - 1]]
    if not starts:
        return [(0, n)] if mask[0] else []
    ends = [i for i in range(n) if mask[i] and not mask[i + 1 - n]]
    if mask[0] and mask[-1]:
        ends = ends[1:] + ends[:1]   # the run that wraps starts last and ends first
    return [(first, (last - first) % n + 1) for first, last in zip(starts, ends)]


def _run_indices(first: int, length: int, n: int) -> list[int]:
    return [(first + k) % n for k in range(length)]


def _outward(vertices: np.ndarray, run: list[int]) -> np.ndarray:
    """Unit direction through the angular middle of ``run``, consecutive polygon vertices."""
    step = 2.0 * math.pi / vertices.shape[0]
    first = vertices[run[0]]
    mid_angle = math.atan2(first[1], first[0]) + 0.5 * (len(run) - 1) * step
    return np.array([math.cos(mid_angle), math.sin(mid_angle)])


def _run_chords(circle: np.ndarray, run: list[int], kept: np.ndarray, radius: float) -> list[Halfspace]:
    """Chords cutting ``run`` off from every kept point, splitting wide arcs."""
    u = _outward(circle, run)
    min_in = float((circle[run] @ u).min())
    max_kept = float((kept @ u).max())
    if min_in - max_kept >= _SPLIT_GAP * radius:
        return [Halfspace(u, 0.5 * (min_in + max_kept))]
    if len(run) == 1:
        raise ConstructionInfeasibleError("cannot separate a single circle point (bug)")
    half = (len(run) + 1) // 2
    return _run_chords(circle, run[:half], kept, radius) + _run_chords(
        circle, run[half:], kept, radius
    )


def _origin_reflections(facets) -> np.ndarray:
    """The origin reflected across each of ``facets``, one row each, after the strict-interiority check."""
    if not facets:
        return np.empty((0, 2))
    return polytope_to_prototypes(ConvexPolytope(tuple(facets)), np.zeros(2), 1).prototypes[1:]


def _run_reflections(arrangement: Arrangement, first: int, length: int) -> np.ndarray:
    """The origin's reflections across the chords of the maximal run ``(first, length)`` of polygon vertices.

    The chords keep every point outside the run; the largest projection
    of those on a chord's direction is at a neighbour of the run or off
    the polygon, both kept by any labelling whose maximal run this is, so
    the rows are those of every such labelling.
    """
    n_v = arrangement.n_vertices
    run = _run_indices(first, length, n_v)
    outside = np.vstack([np.delete(arrangement.points, run, axis=0), np.zeros((1, 2))])
    return _origin_reflections(_run_chords(arrangement.points[:n_v], run, outside, arrangement.radius))


def _pad_facets(count: int, radius: float) -> tuple[Halfspace, ...]:
    """``count`` far redundant facets, spread by the golden angle."""
    golden = 2.399963229728653
    facets = []
    for j in range(count):
        ang = 0.7 + golden * j
        facets.append(Halfspace(np.array([math.cos(ang), math.sin(ang)]), _PAD_OFFSET * radius))
    return tuple(facets)


def _disc_witness(arrangement: Arrangement, labels: np.ndarray, inside_label: int) -> LabeledPrototypeSet:
    """The origin reflected across chords cutting off the polygon vertices not labelled ``inside_label``.

    Every point off the polygon must carry ``inside_label``. The
    reflections come from the plan table, run by run in circular order,
    and are padded to ``budget - 1``.
    """
    n_v = arrangement.n_vertices
    rows = [np.zeros((1, 2))]
    for first, length in _circular_runs((labels[:n_v] != inside_label).tolist()):
        rows.append(_planned(arrangement, ("run", first, length),
                             lambda: _run_reflections(arrangement, first, length)))
    # pad with far redundant facets: every non-constant labelling uses the
    # full budget, so the prototype count depends only on the labelling
    # being constant or not
    pad = arrangement.budget - sum(map(len, rows))
    rows.append(_planned(arrangement, ("pad", pad),
                         lambda: _origin_reflections(_pad_facets(pad, arrangement.radius))))
    prototypes = np.vstack(rows)
    witness_labels = np.full(prototypes.shape[0], -inside_label)
    witness_labels[0] = inside_label
    return LabeledPrototypeSet(prototypes, witness_labels)


def _require_kind(arrangement: Arrangement, labeling: Labeling, kind: str) -> None:
    if arrangement.kind != kind:
        raise InvalidInputError(f"expected a {kind} arrangement, got {arrangement.kind!r}")
    if labeling.size != arrangement.n:
        raise InvalidInputError("labelling size must match the arrangement")


def _constant(labeling: Labeling) -> bool:
    return labeling.bits in (0, (1 << labeling.size) - 1)


def takacs_shatter(arrangement: Arrangement, labeling: Labeling, mu: float = DEFAULT_MU) -> LabeledPrototypeSet:
    """Candidate prototype set for ``labeling`` on a takacs arrangement.

    Constant labellings use a single prototype; everything else uses the
    full N-facet polytope around the centre, i.e. N+1 prototypes. The
    candidate is not checked here; ``verify_shattering`` checks it. It is
    built once per complementary pair of labellings (see ``_paired``).
    ``mu`` does not change the candidate, but the generator protocol
    ``(arrangement, labeling, mu)`` requires it.
    """
    _require_kind(arrangement, labeling, "takacs")
    return _paired(arrangement, labeling, mu, _takacs_witness)


def _takacs_witness(arrangement: Arrangement, labeling: Labeling, mu: float) -> LabeledPrototypeSet:
    """The takacs candidate for ``labeling``, built afresh."""
    labels = labeling.array
    centre = arrangement.special["center_index"]
    if _constant(labeling):
        # copies: a witness owns its arrays, as one sent back by a forked sweep does
        return LabeledPrototypeSet(arrangement.points[[centre]], labels[:1].copy())
    return _disc_witness(arrangement, labels, int(labels[centre]))


# ---------------------------------------------------------------------------
# strip machinery for the unequal-interior-label cases


def _rotated(u: np.ndarray, phi: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    return np.array([c * u[0] - s * u[1], s * u[0] + c * u[1]])


def _chord_normal(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unit normal of the chord from ``a`` to ``b``, rotated a quarter turn counter-clockwise."""
    chord = b - a
    u = np.array([-chord[1], chord[0]])
    u /= np.linalg.norm(u)
    return u


def _place_strip(in_pts: np.ndarray, out_pts: np.ndarray, u: np.ndarray,
                 anchor: np.ndarray, radius: float):
    """Line offsets for one candidate direction, scored by worst clearance.

    The band spanned by the projections of ``in_pts`` on ``u`` must hold
    no projection of ``out_pts``. Offsets take half the projection gap on
    each side (a gap counts at most R), then are capped so the strip
    prototype and both of its reflections stay strictly inside the
    circumcircle (their projections are mid, mid - width, mid + width on
    an axis through ``anchor``). Returns ``(score, lo, hi)`` or None.
    """
    in_proj = in_pts @ u
    out_proj = out_pts @ u
    lo_in = float(in_proj.min())
    hi_in = float(in_proj.max())
    if np.any((out_proj > lo_in) & (out_proj < hi_in)):
        return None
    below = out_proj[out_proj <= lo_in]
    above = out_proj[out_proj >= hi_in]
    gap_lo = min(lo_in - float(below.max()) if below.size else radius, radius)
    gap_hi = min(float(above.min()) - hi_in if above.size else radius, radius)
    lo0 = lo_in - 0.5 * gap_lo
    hi0 = hi_in + 0.5 * gap_hi
    perp = anchor - float(anchor @ u) * u
    cap_sq = (_RIM * radius) ** 2 - float(perp @ perp)
    if cap_sq <= 0.0:
        return None
    cap = math.sqrt(cap_sq)
    hi = min(hi0, (2.0 * cap + lo0) / 3.0)
    lo = max(lo0, (hi - 2.0 * cap) / 3.0)
    # worst clearance of either line to the nearest sample on either side
    score = min(lo_in - lo, lo - (lo_in - gap_lo), hi - hi_in, (hi_in + gap_hi) - hi)
    if score < 0.5 * _CLEAR_MIN * radius:
        return None
    return score, lo, hi


def _build_strip(
    in_pts: np.ndarray,
    out_pts: np.ndarray,
    u0: np.ndarray,
    anchor: np.ndarray,
    radius: float,
):
    """Two parallel lines capturing exactly ``in_pts``, or None.

    Returns ``(u, lo, hi)``: the strip is ``{x : lo < u.x < hi}``. The
    natural direction is used whenever it admits a valid placement; when
    it does not (the two interior points project together, or a point
    sits on a band edge), the direction is tilted by the grid angle whose
    complete placement maximises the worst-case clearance.
    """
    placed = _place_strip(in_pts, out_pts, u0, anchor, radius)
    if placed is not None:
        return u0, placed[1], placed[2]
    best = None
    best_u = None
    for phi in sorted(np.linspace(-_TILT_RANGE, _TILT_RANGE, _TILT_STEPS), key=abs):
        if phi == 0.0:
            continue
        cand_u = _rotated(u0, phi)
        cand = _place_strip(in_pts, out_pts, cand_u, anchor, radius)
        if cand is not None and (best is None or cand[0] > best[0]):
            best = cand
            best_u = cand_u
    if best is None:
        return None
    return best_u, best[1], best[2]


def _strip_prototypes(u: np.ndarray, lo: float, hi: float, anchor: np.ndarray):
    """The strip's inner prototype plus its two reflections across the lines."""
    mid = 0.5 * (lo + hi)
    width = hi - lo
    core = anchor + (mid - float(anchor @ u)) * u
    return core, core - width * u, core + width * u


def _cut_prototype(arrangement: Arrangement, group: tuple[int, ...], whites, mu: float):
    """A minority prototype claiming the vertex ``group`` beyond a single cut line.

    The line is perpendicular to the group's outward direction, between
    the group and every other point of the arrangement; the prototype is
    the reflection of whichever majority prototype in ``whites`` yields
    the larger worst-case margin on the group. The line is pushed toward
    the group as far as clearance allows when that is needed to land the
    reflection outside the circumcircle.
    """
    pts = arrangement.points
    radius = arrangement.radius
    group_pts = pts[list(group)]
    other_pts = np.array([pts[i] for i in range(arrangement.n) if i not in group])
    u = _outward(pts[: arrangement.n_vertices], list(group))
    min_in = float((group_pts @ u).min())
    max_out = float((other_pts @ u).max())
    gap = min_in - max_out
    if gap < _CLEAR_MIN * radius:
        return None
    c_mid = 0.5 * (min_in + max_out)
    c_max = min_in - 0.25 * gap
    target = _PUSH_OUT * radius
    d_w = prototype_distances(group_pts, np.stack(whites)).min(axis=0)
    best = None
    best_key = (False, -np.inf)
    for w in whites:
        pw = float(w @ u)
        # the reflected prototype must land on the group side, so the cut
        # line has to clear both the kept points and this prototype
        c_min = max(max_out + 0.25 * gap, pw + 0.02 * gap)
        if c_min >= c_max:
            continue
        candidates = [min(max(c_mid, c_min), c_max)]
        # largest root of |w + 2 t u|^2 = target^2 in t = c - pw: the line
        # offset from which the reflection clears the circumcircle
        inner = pw * pw - float(w @ w) + target * target
        if inner > 0.0:
            c2 = pw + 0.5 * (-pw + math.sqrt(inner))
            if c_min <= c2 <= c_max:
                candidates.append(c2)
        for c in candidates:
            b = w + 2.0 * (c - pw) * u
            d_b = prototype_distances(group_pts, b[None])[0]
            margin = float((d_w - d_b).min())
            if margin < 2.0 * mu:
                continue
            key = (bool(np.linalg.norm(b) > radius), margin)
            if key > best_key:
                best_key = key
                best = b
    return best


def _partners(vertices: np.ndarray, d_idx: int, b_point: np.ndarray) -> tuple[int, int]:
    """The two strip partner vertices of ``d_idx`` on the side of ``b_point``.

    The far partner terminates the longest diagonal from the vertex that
    passes on the same side of the diameter through the vertex as
    ``b_point``; the near partner is one step back along that side.
    """
    n_v = vertices.shape[0]
    v = vertices[d_idx]
    normal = np.array([-v[1], v[0]])
    side_b = math.copysign(1.0, float(normal @ b_point))
    half = (n_v - 1) // 2
    for direction in (1, -1):
        far = (d_idx + direction * half) % n_v
        if math.copysign(1.0, float(normal @ vertices[far])) == side_b:
            near = (d_idx + direction * (half - 1)) % n_v
            return far, near
    raise ConstructionInfeasibleError("no longest diagonal on the inner point's side (bug)")


def _pair_groups(vertices: int, n_v: int) -> tuple[tuple[int, ...], ...]:
    """Split the minority vertices, the set bits of ``vertices``, into cut groups: adjacent pairs, then singles."""
    groups: list[tuple[int, ...]] = []
    for first, length in _circular_runs([bool(vertices >> v & 1) for v in range(n_v)]):
        run = _run_indices(first, length, n_v)
        for i in range(0, length, 2):
            groups.append(tuple(run[i : i + 2]))
    return tuple(groups)


def _strip_plans(arrangement: Arrangement, labels: list[int], black: int):
    """Strip plans ``(strip_key, groups, park)`` in the order they are tried.

    ``strip_key`` is the tuple of point indices the strip holds. With a
    full minority class of m points the strip first holds two minority
    vertices (a vertex and one of its partners) and the minority interior
    point, every other minority vertex cut alone. Then, for any minority
    class, the strip holds the interior point and at most one vertex, the
    remaining minority vertices cut in adjacent pairs and any unused
    budget parked far away. The partners, the vertex nearest the majority
    interior point and the cut groups come from the plan table.
    """
    pts = arrangement.points
    n_v = arrangement.n_vertices
    i1, i2 = arrangement.special["inner_indices"]
    b_idx, w_idx = (i1, i2) if labels[i1] == black else (i2, i1)
    black_vertices = [v for v in range(n_v) if labels[v] == black]
    spare = arrangement.budget - 3  # beyond the strip's core and its two reflections

    if len(black_vertices) + 1 == arrangement.param:
        c_idx = _planned(arrangement, ("nearest", w_idx),
                         lambda: int(np.argmin(prototype_distances(pts[:n_v], pts[[w_idx]])[0])))
        for p_idx in black_vertices:
            if p_idx == c_idx:
                continue
            partners = _planned(arrangement, ("partners", p_idx, b_idx),
                                lambda: _partners(pts[:n_v], p_idx, pts[b_idx]))
            for partner in partners:
                if labels[partner] != black:
                    continue
                remaining = sorted(set(black_vertices) - {p_idx, partner})
                yield (p_idx, partner, b_idx), [(v,) for v in remaining], 0

    if not black_vertices:
        yield (b_idx,), [], spare
        return
    black_mask = sum(1 << v for v in black_vertices)
    groups_after = {}
    for v_star in black_vertices:
        rest = black_mask & ~(1 << v_star)
        groups_after[v_star] = _planned(arrangement, ("groups", rest), lambda: _pair_groups(rest, n_v))
    for v_star in sorted(black_vertices, key=lambda v: (len(groups_after[v]), v)):
        groups = groups_after[v_star]
        if len(groups) > spare:
            continue
        yield (b_idx, v_star), groups, spare - len(groups)


def _strip_direction(pts: np.ndarray, strip_key: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The natural direction ``u0`` and the anchor of the strip holding ``strip_key``.

    Two vertices and the interior point: the normal of the vertices' chord,
    pointing away from the centre, anchored at the centre. The interior
    point and one vertex: the normal of their chord, anchored at its
    middle. The interior point alone: its own direction, anchored at it.
    """
    if len(strip_key) == 3:
        p_pt, partner_pt = pts[strip_key[0]], pts[strip_key[1]]
        u0 = _chord_normal(p_pt, partner_pt)
        if float(u0 @ (p_pt + partner_pt)) < 0.0:
            u0 = -u0
        return u0, np.zeros(2)
    b_pt = pts[strip_key[0]]
    if len(strip_key) == 2:
        v_pt = pts[strip_key[1]]
        return _chord_normal(b_pt, v_pt), 0.5 * (b_pt + v_pt)
    return b_pt / np.linalg.norm(b_pt), b_pt


def _strip_core(arrangement: Arrangement, strip_key: tuple[int, ...]):
    """``(core, whites)`` of the strip holding exactly ``strip_key``, or None.

    ``core`` is the strip's minority prototype and ``whites`` its two
    reflections across the strip lines; None when no placement exists or a
    prototype would leave the circumcircle.
    """
    pts = arrangement.points
    radius = arrangement.radius
    u0, anchor = _strip_direction(pts, strip_key)
    out_pts = pts[[i for i in range(arrangement.n) if i not in strip_key]]
    strip = _build_strip(pts[list(strip_key)], out_pts, u0, anchor, radius)
    if strip is None:
        return None
    core, w_dn, w_up = _strip_prototypes(*strip, anchor)
    if max(np.linalg.norm(core), np.linalg.norm(w_dn), np.linalg.norm(w_up)) >= radius:
        return None
    return core, (w_dn, w_up)


def _park_prototypes(count: int, radius: float) -> tuple[np.ndarray, ...]:
    """``count`` surplus prototypes parked far below the arrangement."""
    parked = []
    for j in range(count):
        ang = -math.pi / 2.0 + 0.13 * (j + 1)
        parked.append(_PARK_RADIUS * radius * np.array([math.cos(ang), math.sin(ang)]))
    return tuple(parked)


def _strip_witness(
    arrangement: Arrangement,
    black: int,
    strip_key: tuple[int, ...],
    groups: list[tuple[int, ...]],
    park: int,
    mu: float,
):
    """The prototype set of one strip plan, or None when the plan does not build.

    The strip, every cut prototype and the parked prototypes come from the
    arrangement's plan table; only their assembly is per labelling.
    """
    strip = _planned(arrangement, ("strip", strip_key), lambda: _strip_core(arrangement, strip_key))
    if strip is None:
        return None
    core, whites = strip
    protos = [core]
    for group in groups:
        b = _planned(arrangement, ("cut", strip_key, group, mu),
                     lambda: _cut_prototype(arrangement, group, whites, mu))
        if b is None:
            return None
        protos.append(b)
    protos.extend(_planned(arrangement, ("park", park),
                           lambda: _park_prototypes(park, arrangement.radius)))
    protos.extend(whites)
    labels = [black] * (len(protos) - 2) + [-black, -black]
    try:
        return LabeledPrototypeSet(np.array(protos), np.array(labels))
    except InvalidInputError:
        return None


def gunn_shatter(arrangement: Arrangement, labeling: Labeling, mu: float = DEFAULT_MU) -> LabeledPrototypeSet:
    """Candidate prototype set for ``labeling`` on a gunn arrangement, <= m prototypes.

    Equal interior labels reduce to the circle construction with an
    (m-1)-facet budget. Unequal interior labels relabel the minority class
    and return the first strip plan (see ``_strip_plans``) that builds;
    ``verify_shattering`` checks the returned candidate. The clearances
    scale with the radius R, so ``mu / R`` above ``_CLEAR_MIN`` is refused
    as unreachable. The candidate is built once per complementary pair of
    labellings (see ``_paired``).
    """
    _require_kind(arrangement, labeling, "gunn")
    if mu > _CLEAR_MIN * arrangement.radius:
        raise InvalidInputError(
            f"mu / radius = {mu / arrangement.radius:.3g} exceeds {_CLEAR_MIN:g}, "
            "the largest margin ratio the gunn construction supports"
        )
    return _paired(arrangement, labeling, mu, _gunn_witness)


def _gunn_witness(arrangement: Arrangement, labeling: Labeling, mu: float) -> LabeledPrototypeSet:
    """The gunn candidate for ``labeling``, built afresh."""
    labels = labeling.array
    i1, i2 = arrangement.special["inner_indices"]

    if _constant(labeling):
        return LabeledPrototypeSet(np.zeros((1, 2)), labels[:1].copy())

    if labels[i1] == labels[i2]:
        return _disc_witness(arrangement, labels, int(labels[i1]))

    # interior labels differ: "black" is the minority class (2m+1 is odd,
    # so there is no tie), and the black interior point is in it
    black = 1 if 2 * labeling.bits.bit_count() < labeling.size else -1
    for plan in _strip_plans(arrangement, labels.tolist(), black):
        s = _strip_witness(arrangement, black, *plan, mu)
        if s is not None:
            return s
    raise ConstructionInfeasibleError(f"labelling {labeling.bits:#x}: no strip plan builds (bug)")
