"""Shattering verification: exhaustive sweeps, certificates, randomized search.

``verify_shattering`` enumerates every labelling of an arrangement, asks a
generator for a witness prototype set, and checks it with the margin-aware
realisation test; the result is a self-contained certificate that can be
re-verified later without the generator. ``certificate_to_dict`` and
``certificate_from_dict`` are the JSON form of a certificate (schema
``vcnn-certificate/1``); ``reverify_certificate`` re-runs the sweep with
the stored witnesses as the generator. The polytope witness file (schema
``vcnn-polytope-witness/1``) is written and re-verified here as well.

``search_lower_bound`` is the randomized complement to the constructive
witnesses: it samples point sets and certifies each through the same
sweep, with a per-labelling hill-climb as the generator. Finding a
certificate proves the lower bound for that n; not finding one proves
nothing and is always reported as a budget-limited negative, never as
impossibility. Deterministic for a fixed seed: every labelling derives
its own child seed, so results do not depend on evaluation order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .classifier import DEFAULT_MU, LabeledPrototypeSet, Labeling, evaluate_margins, realisation
from .constructions import Arrangement, polytope_to_prototypes
from .errors import CertificateError, ConstructionInfeasibleError, InvalidInputError
from .geometry import ConvexPolytope, Halfspace, contains_many

CERTIFICATE_SCHEMA = "vcnn-certificate/1"
POLYTOPE_SCHEMA = "vcnn-polytope-witness/1"

# 2^n labelings must stay enumerable at desk scale.
_MAX_EXHAUSTIVE_N = 22
_MAX_COEFFICIENT_N = 16


@dataclass
class ShatterCertificate:
    """Exhaustive evidence that an arrangement is shattered.

    ``witnesses`` maps each labelling bitmask to the prototype set that
    realises it; ``verified`` is True only when every labelling passed at
    margin ``mu``. Certificates re-verify from their serialized form alone.
    """

    arrangement: Arrangement
    mu: float
    witnesses: dict[int, LabeledPrototypeSet] = field(default_factory=dict)
    min_margin: float = float("inf")
    verified: bool = False
    first_failure: int | None = None
    failure_reason: str | None = None


def verify_shattering(arrangement: Arrangement, generator, mu: float = DEFAULT_MU) -> ShatterCertificate:
    """Run ``generator(arrangement, labeling, mu)`` over all 2^n labelings.

    The generator is told the margin ``mu`` it must meet and raises
    ``ConstructionInfeasibleError`` when it has no witness. Every witness
    is checked here, once: it may use at most ``arrangement.budget``
    prototypes and must realise its labelling at margin ``mu``. Stops at
    the first failing labelling and records it; failure is data, not an
    exception.
    """
    n = arrangement.n
    if n > _MAX_EXHAUSTIVE_N:
        raise InvalidInputError(f"2^{n} labelings is beyond desk scale")
    if not 0 < mu < math.inf:
        raise InvalidInputError(f"mu must be finite and positive, got {mu!r}")
    cert = ShatterCertificate(arrangement=arrangement, mu=mu)
    for bits in range(1 << n):
        labeling = Labeling(bits, n)
        try:
            witness = generator(arrangement, labeling, mu)
        except ConstructionInfeasibleError as exc:
            cert.first_failure = bits
            cert.failure_reason = str(exc)
            return cert
        if witness.m > arrangement.budget:
            cert.first_failure = bits
            cert.failure_reason = (
                f"witness uses {witness.m} prototypes, over the budget of {arrangement.budget}"
            )
            return cert
        ok, worst = realisation(witness, arrangement.points, labeling.to_array(), mu)
        if not ok:
            cert.first_failure = bits
            cert.failure_reason = f"witness misclassifies or undercuts margin (min {worst:.3e})"
            return cert
        cert.witnesses[bits] = witness
        cert.min_margin = min(cert.min_margin, worst)
    cert.verified = True
    return cert


_STEP_INIT = 0.25   # first hill-climb step, as a fraction of the point set's extent
_STEP_DECAY = 0.5   # step factor after a sweep that improves nothing


@dataclass(frozen=True)
class SearchConfig:
    """Budget and seeding for the randomized lower-bound search."""

    d: int
    m: int
    n: int
    trials: int = 24          # prototype restarts per labelling
    point_sets: int = 3       # independently sampled point sets
    steps: int = 120          # hill-climb sweeps per restart
    rng_seed: int = 0
    mu: float = DEFAULT_MU

    def __post_init__(self):
        if self.d < 1 or self.m < 1 or self.n < 1:
            raise InvalidInputError("d, m, n must be >= 1")
        if self.trials < 1 or self.point_sets < 1 or self.steps < 1:
            raise InvalidInputError("budgets must be >= 1")
        if not 0 < self.mu < math.inf:
            raise InvalidInputError(f"mu must be finite and positive, got {self.mu!r}")


def _restart_pool(rng: np.random.Generator, points: np.ndarray, target: np.ndarray,
                  trials: int, m: int, span: np.ndarray, scale: float):
    """Initial positions and labels of m prototypes for each of ``trials`` restarts.

    Half the restarts start from jittered sample points carrying the
    target labels (a condensing-style initializer), the rest are uniform
    in the twice-inflated bounding box with random labels.
    """
    n, d = points.shape
    idx = rng.integers(0, n, size=(trials, m))
    inits = points[idx] + rng.normal(0.0, 0.02 * scale, size=(trials, m, d))
    labels = target[idx]
    n_uniform = trials // 2
    if n_uniform:
        centre = 0.5 * (points.max(axis=0) + points.min(axis=0))
        lo = centre - span
        hi = centre + span
        inits[-n_uniform:] = rng.uniform(lo, hi, size=(n_uniform, m, d))
        labels[-n_uniform:] = rng.choice(np.array([-1, 1]), size=(n_uniform, m))
    return inits, labels.astype(np.int64)


def _search_one_labeling(arrangement: Arrangement, labeling: Labeling, mu: float,
                         cfg: SearchConfig, ps: int) -> LabeledPrototypeSet:
    """The search generator: a witness for one labelling of point set ``ps``.

    Places ``arrangement.budget`` prototypes. Restarts are seeded with
    ``[rng_seed, ps, bits]``, independent of evaluation order; raises
    ``ConstructionInfeasibleError`` when none reaches margin 2 mu.
    """
    points = arrangement.points
    target = labeling.to_array()
    rng = np.random.default_rng([cfg.rng_seed, ps, labeling.bits])
    span = points.max(axis=0) - points.min(axis=0)
    scale = max(float(span.max()), 1e-6)
    inits, init_labels = _restart_pool(rng, points, target, cfg.trials, arrangement.budget, span, scale)
    best, protos, ridx = kernels.search_labeling(
        points,
        target,
        inits,
        init_labels,
        cfg.steps,
        _STEP_INIT * scale,
        _STEP_DECAY,
        2.0 * mu,
        1e-6 * scale,
    )
    if best < 2.0 * mu:
        raise ConstructionInfeasibleError(f"no witness within budget (best margin {best:.3e})")
    try:
        return LabeledPrototypeSet(protos, init_labels[ridx])
    except InvalidInputError as exc:
        raise ConstructionInfeasibleError(f"search witness rejected: {exc}") from exc


def search_lower_bound(cfg: SearchConfig):
    """Certify by search that some n-point set in R^d is shattered by 1NN(d, m).

    Returns ``(n, certificate)`` when every labelling of some sampled
    point set is realised at margin mu, and ``(0, None)`` otherwise. A
    negative outcome only means the budget was exhausted.
    """
    for ps in range(cfg.point_sets):
        points = np.random.default_rng([cfg.rng_seed, ps]).uniform(-1.0, 1.0, size=(cfg.n, cfg.d))
        arrangement = Arrangement(kind="search", points=points, radius=1.0, param=cfg.m)
        generator = functools.partial(_search_one_labeling, cfg=cfg, ps=ps)
        cert = verify_shattering(arrangement, generator, cfg.mu)
        if cert.verified:
            return cfg.n, cert
    return 0, None


def shatter_coefficient_exhaustive(points, m: int, cfg: SearchConfig) -> int:
    """Count the labelings of ``points`` the search can realise with m prototypes.

    A lower bound on the shatter coefficient: search failures undercount,
    successes are margin-verified so the count never exceeds the truth.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if n > _MAX_COEFFICIENT_N:
        raise InvalidInputError(f"2^{n} labelings is beyond desk scale for counting")
    arrangement = Arrangement(kind="search", points=points, radius=1.0, param=m)
    count = 0
    for bits in range(1 << n):
        labeling = Labeling(bits, n)
        try:
            witness = _search_one_labeling(arrangement, labeling, cfg.mu, cfg, 0)
        except ConstructionInfeasibleError:
            continue
        count += realisation(witness, points, labeling.to_array(), cfg.mu)[0]
    return count


# ---------------------------------------------------------------------------
# certificate files


def certificate_to_dict(cert: ShatterCertificate, generator: str, meta: dict | None = None) -> dict:
    """The JSON document of ``cert``: hex bitmask keys, full-precision floats.

    ``meta`` (timestamps, tool version) is stored under ``"meta"`` unless
    it is None, so the rest of the document is byte-reproducible.
    """
    arr = cert.arrangement
    special = {}
    if arr.center_index is not None:
        special["center_index"] = arr.center_index
    if arr.inner_indices is not None:
        special["inner_indices"] = list(arr.inner_indices)
    if arr.apex_index is not None:
        special["apex_index"] = arr.apex_index
    doc = {
        "schema": CERTIFICATE_SCHEMA,
        "kind": arr.kind,
        "radius": arr.radius,
        "param": arr.param,
        "points": arr.points.tolist(),
        "special": special,
        "mu": cert.mu,
        "min_margin": cert.min_margin if cert.witnesses else None,
        "verified": cert.verified,
        "generator": generator,
        "witnesses": {
            format(bits, "#x"): {
                "prototypes": w.prototypes.tolist(),
                "labels": w.labels.tolist(),
            }
            for bits, w in cert.witnesses.items()
        },
    }
    if cert.first_failure is not None:
        doc["first_failure"] = format(cert.first_failure, "#x")
        doc["failure_reason"] = cert.failure_reason
    if meta is not None:
        doc["meta"] = meta
    return doc


def certificate_from_dict(doc: dict) -> ShatterCertificate:
    """The certificate stored in a ``certificate_to_dict`` document.

    Raises ``CertificateError`` for an unknown schema or arrangement kind,
    a malformed document, a margin ``mu`` that is not finite and positive,
    or a witness key that is not a labelling of the stored points written
    as ``format(bits, "#x")``.
    """
    if not isinstance(doc, dict):
        raise CertificateError(f"a certificate is a JSON object, not {type(doc).__name__}")
    if doc.get("schema") != CERTIFICATE_SCHEMA:
        raise CertificateError(f"unknown schema {doc.get('schema')!r}")
    try:
        points = np.asarray(doc["points"], dtype=np.float64)
        if points.ndim != 2:
            raise ValueError("points must be an (n, d) array")
        special = doc.get("special", {})
        arr = Arrangement(
            kind=doc["kind"],
            points=points,
            radius=float(doc["radius"]),
            param=int(doc["param"]),
            center_index=special.get("center_index"),
            inner_indices=tuple(special["inner_indices"]) if "inner_indices" in special else None,
            apex_index=special.get("apex_index"),
        )
        witnesses = {
            int(key, 16): LabeledPrototypeSet(
                np.asarray(val["prototypes"], dtype=np.float64),
                np.asarray(val["labels"], dtype=np.int64),
            )
            for key, val in doc["witnesses"].items()
        }
        cert = ShatterCertificate(
            arrangement=arr,
            mu=float(doc["mu"]),
            witnesses=witnesses,
            min_margin=float(doc["min_margin"]) if doc.get("min_margin") is not None else float("inf"),
            verified=bool(doc["verified"]),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CertificateError(f"malformed certificate: {exc}") from exc
    if not 0 < cert.mu < math.inf:
        raise CertificateError(f"mu must be finite and positive, got {cert.mu!r}")
    for key in doc["witnesses"]:
        bits = int(key, 16)
        if key != format(bits, "#x"):
            raise CertificateError(f"witness key {key!r} is not written as {bits:#x}")
        if not 0 <= bits < 1 << arr.n:
            raise CertificateError(f"witness key {bits:#x} is not a labelling of {arr.n} points")
    return cert


def reverify_certificate(cert: ShatterCertificate) -> tuple[bool, str]:
    """Re-check every labelling from the stored witnesses alone.

    Runs ``verify_shattering`` with the stored witnesses as the generator,
    then compares the recomputed minimum margin with the recorded one.
    Returns ``(ok, message)``.
    """
    def stored(_arrangement, labeling: Labeling, _mu) -> LabeledPrototypeSet:
        if labeling.bits not in cert.witnesses:
            raise ConstructionInfeasibleError("missing from certificate")
        return cert.witnesses[labeling.bits]

    check = verify_shattering(cert.arrangement, stored, cert.mu)
    if not check.verified:
        return False, f"labelling {check.first_failure:#x}: {check.failure_reason}"
    worst = check.min_margin
    if cert.min_margin != float("inf") and not np.isclose(worst, cert.min_margin, rtol=1e-12, atol=0):
        return False, f"recorded min margin {cert.min_margin!r} does not match recomputed {worst!r}"
    return True, f"all {len(check.witnesses)} labelings pass at mu {cert.mu:.1e} (min margin {worst:.6g})"


def _polytope_disagreements(polytope: ConvexPolytope, witness: LabeledPrototypeSet,
                            inside_label: int, check: dict) -> tuple[int, int]:
    """Sampled disagreements between membership in ``polytope`` and 1NN labels.

    Draws ``check["n_samples"]`` points uniformly from the box of
    half-width ``check["box_halfwidth"]`` with seed ``check["seed"]``, drops
    those within ``check["band"]`` of the boundary, and returns
    ``(disagreements, samples kept)``.
    """
    rng = np.random.default_rng(int(check["seed"]))
    half = float(check["box_halfwidth"])
    samples = rng.uniform(-half, half, size=(int(check["n_samples"]), polytope.dim))
    member = contains_many(polytope, samples, tol=float(check["band"]))
    keep = member != 0
    got, _ = evaluate_margins(witness, samples[keep])
    want = np.where(member[keep] == 1, inside_label, -inside_label)
    return int((got != want).sum()), int(keep.sum())


def polytope_witness_to_dict(polytope: ConvexPolytope, interior, inside_label: int, seed: int,
                             meta: dict | None = None) -> dict:
    """The polytope witness document: reflection prototypes plus a sampled check.

    ``"verified"`` is True iff no sample of the check disagrees. ``meta``
    is stored as in ``certificate_to_dict``.
    """
    interior = np.asarray(interior, dtype=np.float64)
    witness = polytope_to_prototypes(polytope, interior, inside_label)
    check = {"seed": seed, "n_samples": 10000, "box_halfwidth": 3.0, "band": 1e-6}
    check["disagreements"], _ = _polytope_disagreements(polytope, witness, inside_label, check)
    doc = {
        "schema": POLYTOPE_SCHEMA,
        "kind": "polytope",
        "facets": {
            "normals": [f.normal.tolist() for f in polytope.facets],
            "offsets": [f.offset for f in polytope.facets],
        },
        "interior": interior.tolist(),
        "inside_label": inside_label,
        "prototypes": witness.prototypes.tolist(),
        "labels": witness.labels.tolist(),
        "check": check,
        "verified": check["disagreements"] == 0,
    }
    if meta is not None:
        doc["meta"] = meta
    return doc


def reverify_polytope_witness(doc: dict) -> tuple[bool, str]:
    """Repeat the sampled check of a ``polytope_witness_to_dict`` document."""
    try:
        facets = tuple(
            Halfspace(np.asarray(n, dtype=np.float64), float(b))
            for n, b in zip(doc["facets"]["normals"], doc["facets"]["offsets"])
        )
        polytope = ConvexPolytope(facets)
        witness = LabeledPrototypeSet(
            np.asarray(doc["prototypes"], dtype=np.float64),
            np.asarray(doc["labels"], dtype=np.int64),
        )
        check = doc["check"]
        disagreements, kept = _polytope_disagreements(polytope, witness, int(doc["inside_label"]), check)
        recorded = int(check["disagreements"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateError(f"malformed polytope witness: {exc}") from exc
    if disagreements != recorded or disagreements != 0:
        return False, f"{disagreements} membership/classification disagreements"
    return True, f"membership and classification agree on {kept} samples"
