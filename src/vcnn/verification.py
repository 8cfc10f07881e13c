"""Shattering verification: exhaustive sweeps, certificates, randomized search.

``verify_shattering`` enumerates every labelling of an arrangement, asks a
generator for a witness prototype set, and checks it with the margin-aware
realisation test; the result is a self-contained certificate that can be
re-verified later without the generator. ``certificate_to_dict`` and
``certificate_from_dict`` are the JSON form of a certificate (schema
``vcnn-certificate/1``); ``certificate_json`` writes the same text as
``json.dumps`` of that document from the witness arrays, and the loader
reads the witnesses back as stacked arrays. ``reverify_certificate``
re-runs the sweep with the stored witnesses as the generator. The polytope witness file (schema
``vcnn-polytope-witness/1``) is written and re-verified here as well.

``search_lower_bound`` is the randomized complement to the constructive
witnesses: it samples point sets and certifies each through the same
sweep, with a hill-climb as the generator that searches a chunk of
labellings at a time in one lockstep batch. Finding a certificate proves
the lower bound for that n; not finding one proves nothing and is always
reported as a budget-limited negative, never as impossibility.
Deterministic for a fixed seed: every labelling derives its own child
seed, so results depend neither on evaluation order nor on chunking.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .classifier import (
    DEFAULT_MU,
    LabeledPrototypeSet,
    Labeling,
    check_prototype_stack,
    evaluate_margins,
    realisation,
)
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
    for bits, witness, worst, failure in _outcomes(arrangement, generator, mu):
        if failure is not None:
            cert.first_failure, cert.failure_reason = bits, failure
            return cert
        cert.witnesses[bits] = witness
        cert.min_margin = min(cert.min_margin, worst)
    cert.verified = True
    return cert


def _outcomes(arrangement: Arrangement, generator, mu: float):
    """``(bits, witness, worst, failure)`` of every labelling in bitmask order.

    ``failure`` is None when the witness passes the checks that
    ``verify_shattering`` states, and says why not otherwise.
    """
    n = arrangement.n
    for bits in range(1 << n):
        labeling = Labeling(bits, n)
        try:
            witness = generator(arrangement, labeling, mu)
        except ConstructionInfeasibleError as exc:
            yield bits, None, None, str(exc)
            continue
        budget = arrangement.budget
        if witness.m > budget:
            yield bits, None, None, f"witness uses {witness.m} prototypes, over the budget of {budget}"
            continue
        ok, worst = realisation(witness, arrangement.points, labeling.array, mu)
        failure = None if ok else f"witness misclassifies or undercuts margin (min {worst:.3e})"
        yield bits, witness, worst, failure


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


# Rows (labellings x restarts) the search climbs in one lockstep batch:
# enough to spread NumPy's per-call cost, few enough that the sweep's stop
# at a failing labelling wastes little and the batch stays small in memory.
_BATCH_ROWS = 256


class _SearchGenerator:
    """The search generator for point set ``ps``: witnesses found a chunk of labellings at a time.

    Labellings are searched in bitmask-order chunks of about
    ``_BATCH_ROWS`` rows (labellings x ``cfg.trials``), each chunk in one
    ``kernels.search_batch`` call; a call serves one labelling from the
    chunk that holds it. Places ``arrangement.budget`` prototypes.
    Restarts are seeded with ``[rng_seed, ps, bits]``, so a witness depends
    neither on chunk boundaries nor on evaluation order. Raises
    ``ConstructionInfeasibleError`` when no restart reaches margin 2 mu.
    """

    def __init__(self, cfg: SearchConfig, ps: int):
        self.cfg = cfg
        self.ps = ps
        self.chunk = max(1, _BATCH_ROWS // cfg.trials)
        self._key = None      # (arrangement, first bitmask, mu) of the chunk held
        self._found = None    # (best margin, prototypes, labels) per labelling of the chunk

    def __call__(self, arrangement: Arrangement, labeling: Labeling, mu: float) -> LabeledPrototypeSet:
        start = labeling.bits - labeling.bits % self.chunk
        key = self._key
        if key is None or key[0] is not arrangement or key[1:] != (start, mu):
            self._found = self._search(arrangement, start, mu)
            self._key = (arrangement, start, mu)
        best, protos, labels = (part[labeling.bits - start] for part in self._found)
        if best < 2.0 * mu:
            raise ConstructionInfeasibleError(f"no witness within budget (best margin {best:.3e})")
        try:
            return LabeledPrototypeSet(protos, labels)
        except InvalidInputError as exc:
            raise ConstructionInfeasibleError(f"search witness rejected: {exc}") from exc

    def _search(self, arrangement: Arrangement, start: int, mu: float):
        cfg = self.cfg
        points = arrangement.points
        n = arrangement.n
        span = points.max(axis=0) - points.min(axis=0)
        scale = max(float(span.max()), 1e-6)
        bits = range(start, min(start + self.chunk, 1 << n))
        targets = np.array([Labeling(b, n).array for b in bits])
        pools = [
            _restart_pool(np.random.default_rng([cfg.rng_seed, self.ps, b]), points, target,
                          cfg.trials, arrangement.budget, span, scale)
            for b, target in zip(bits, targets)
        ]
        init_labels = np.stack([labels for _, labels in pools])
        best, protos, ridx = kernels.search_batch(
            points,
            targets,
            np.stack([inits for inits, _ in pools]),
            init_labels,
            cfg.steps,
            _STEP_INIT * scale,
            _STEP_DECAY,
            2.0 * mu,
            1e-6 * scale,
        )
        return best, protos, init_labels[np.arange(len(bits)), ridx]


def search_lower_bound(cfg: SearchConfig):
    """Certify by search that some n-point set in R^d is shattered by 1NN(d, m).

    Returns ``(n, certificate)`` when every labelling of some sampled
    point set is realised at margin mu, and ``(0, None)`` otherwise. A
    negative outcome only means the budget was exhausted.
    """
    for ps in range(cfg.point_sets):
        points = np.random.default_rng([cfg.rng_seed, ps]).uniform(-1.0, 1.0, size=(cfg.n, cfg.d))
        arrangement = Arrangement(kind="search", points=points, radius=1.0, param=cfg.m)
        cert = verify_shattering(arrangement, _SearchGenerator(cfg, ps), cfg.mu)
        if cert.verified:
            return cfg.n, cert
    return 0, None


def shatter_coefficient_exhaustive(points, m: int, cfg: SearchConfig) -> int:
    """Count the labelings of ``points`` the search can realise with m prototypes.

    A lower bound on the shatter coefficient: search failures undercount,
    successes are margin-verified so the count never exceeds the truth.
    ``m`` and ``points`` that ``Arrangement`` refuses raise
    ``InvalidInputError``.
    """
    arrangement = Arrangement(kind="search", points=points, radius=1.0, param=m)
    if arrangement.n > _MAX_COEFFICIENT_N:
        raise InvalidInputError(f"2^{arrangement.n} labelings is beyond desk scale for counting")
    outcomes = _outcomes(arrangement, _SearchGenerator(cfg, 0), cfg.mu)
    return sum(failure is None for *_, failure in outcomes)


# ---------------------------------------------------------------------------
# certificate files


def certificate_to_dict(cert: ShatterCertificate, generator: str, meta: dict | None = None) -> dict:
    """The JSON document of ``cert``: hex bitmask keys, full-precision floats.

    ``meta`` (timestamps, tool version) is stored under ``"meta"`` unless
    it is None, so the rest of the document is byte-reproducible.
    """
    arr = cert.arrangement
    doc = {
        "schema": CERTIFICATE_SCHEMA,
        "kind": arr.kind,
        "radius": arr.radius,
        "param": arr.param,
        "points": arr.points.tolist(),
        "special": arr.special,
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


def _rendered(values: np.ndarray, render) -> np.ndarray:
    """``render`` of each element of the 1-D ``values``, as an object array.

    ``render`` runs once per distinct 64-bit pattern, not per distinct
    value, so ``0.0`` and ``-0.0`` keep their own text.
    """
    patterns, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array([render(v) for v in patterns.view(values.dtype).tolist()], dtype=object)
    return texts[inverse.ravel()]


def _entry_template(m: int, d: int) -> str:
    """The ``json.dumps(..., indent=2)`` text of one witness entry of m prototypes in R^d.

    Fields: the key, the m labels, then the m * d coordinates row by row.
    """
    row = "        [\n" + ",\n".join(["          {}"] * d) + "\n        ]" if d else "        []"
    return (
        '    "{}": {{\n      "labels": [\n' + ",\n".join(["        {}"] * m)
        + '\n      ],\n      "prototypes": [\n' + ",\n".join([row] * m) + "\n      ]\n    }}"
    )


def _witness_entries(witnesses: dict[int, LabeledPrototypeSet]) -> list[str]:
    """The text of every witness entry, in the order of their JSON keys."""
    keyed = sorted(((format(bits, "#x"), w) for bits, w in witnesses.items()), key=lambda kw: kw[0])
    groups: dict[tuple[int, int], list[int]] = {}
    for pos, (_, w) in enumerate(keyed):
        groups.setdefault(w.prototypes.shape, []).append(pos)
    entries = [""] * len(keyed)
    for (m, d), pos in groups.items():
        k = len(pos)
        protos = np.stack([keyed[p][1].prototypes for p in pos])
        labels = np.stack([keyed[p][1].labels for p in pos])
        fields = np.concatenate([
            np.array([keyed[p][0] for p in pos], dtype=object).reshape(k, 1),
            _rendered(labels.ravel(), int.__repr__).reshape(k, m),
            _rendered(protos.ravel(), float.__repr__).reshape(k, m * d),
        ], axis=1)
        template = _entry_template(m, d)
        for p, row in zip(pos, fields.tolist()):
            entries[p] = template.format(*row)
    return entries


def certificate_json(cert: ShatterCertificate, generator: str, meta: dict | None = None) -> str:
    """``json.dumps(certificate_to_dict(cert, generator, meta), sort_keys=True, indent=2) + "\\n"``.

    The same bytes, built from the prototype arrays: every field but
    ``"witnesses"`` (the last key in sorted order) is ``json.dumps`` of the
    document ``certificate_to_dict`` builds, so the schema has one
    definition; the witness table is filled in from one text template per
    prototype shape, with ``float.__repr__`` (what ``json`` writes) run
    once per distinct coordinate bit pattern of each shape.
    """
    # one witness is enough for certificate_to_dict to write the recorded min_margin
    head = replace(cert, witnesses=dict(itertools.islice(cert.witnesses.items(), 1)))
    doc = certificate_to_dict(head, generator, meta)
    del doc["witnesses"]
    prefix = json.dumps(doc, sort_keys=True, indent=2)[: -len("\n}")] + ',\n  "witnesses": '
    if not cert.witnesses:
        return prefix + "{}\n}\n"
    entries = _witness_entries(cert.witnesses)
    # one join builds the text, with no intermediate copy of the table
    entries[0] = prefix + "{\n" + entries[0]
    entries[-1] += "\n  }\n}\n"
    return ",\n".join(entries)


def _require_json_types(values, types: tuple, message: str) -> None:
    """Raise ``ValueError(message)`` unless every element of ``values`` is one of ``types``, never a bool.

    One pass of ``type`` over ``values``, then one test per distinct type.
    """
    for kind in set(map(type, values)):
        if issubclass(kind, bool) or not issubclass(kind, types):
            raise ValueError(message)


# Most witness entries parsed and checked as one stack: enough to spread
# NumPy's per-call cost, few enough that the temporaries stay small (a whole
# gunn m=7 group at once raised the peak RSS of verify from 106 to 134 MB).
_LOAD_ROWS = 4096


def _load_witnesses(entries: dict, n: int) -> dict[int, LabeledPrototypeSet]:
    """The witnesses of a certificate's ``"witnesses"`` table over n points.

    Entries are grouped by prototype count; each group is stacked, up to
    ``_LOAD_ROWS`` entries at a time, into one (k, m, d) coordinate and one
    (k, m) label array, checked once with ``check_prototype_stack`` and
    wrapped row by row. Labels must be JSON integers and coordinates JSON
    numbers. Raises ``CertificateError`` for a key that is not a labelling of n points
    written as ``format(bits, "#x")``, and lets NumPy's and the stack
    check's errors through for a malformed entry.
    """
    groups: dict[int, list[tuple[int, dict]]] = {}
    witnesses: dict[int, LabeledPrototypeSet | None] = {}   # keys in the document's order
    for key, val in entries.items():
        bits = int(key, 16)
        if key != format(bits, "#x"):
            raise CertificateError(f"witness key {key!r} is not written as {bits:#x}")
        if not 0 <= bits < 1 << n:
            raise CertificateError(f"witness key {bits:#x} is not a labelling of {n} points")
        groups.setdefault(len(val["prototypes"]), []).append((bits, val))
        witnesses[bits] = None
    for group in groups.values():
        # a block of rows at a time bounds the temporaries of parsing and checking
        for lo in range(0, len(group), _LOAD_ROWS):
            block = group[lo : lo + _LOAD_ROWS]
            label_rows = [val["labels"] for _, val in block]
            proto_rows = [val["prototypes"] for _, val in block]
            _require_json_types(itertools.chain.from_iterable(label_rows), (int,),
                                "witness labels must be JSON integers +1 or -1")
            _require_json_types(itertools.chain.from_iterable(itertools.chain.from_iterable(proto_rows)),
                                (int, float), "witness coordinates must be JSON numbers")
            protos = np.array(proto_rows, dtype=np.float64)
            labels = np.array(label_rows, dtype=np.int64)
            check_prototype_stack(protos, labels)
            for (bits, _), w in zip(block, LabeledPrototypeSet.from_checked_stack(protos, labels)):
                witnesses[bits] = w
    return witnesses


def certificate_from_dict(doc: dict) -> ShatterCertificate:
    """The certificate stored in a ``certificate_to_dict`` document.

    Raises ``CertificateError`` for an unknown schema, a malformed
    document, an arrangement ``Arrangement`` refuses, a stored ``special``
    (missing reads as ``{}``) other than the one ``kind`` and ``param``
    derive, a ``mu``, ``radius`` or coordinate that is not a JSON number, a
    margin ``mu`` that is not finite and positive, a ``verified`` that is
    not a JSON boolean, a ``min_margin`` that is not a number (or null when
    no witness is stored) or is not finite although a stored witness has
    both labels, a witness label that is not a JSON integer +1 or -1, or a
    witness key that is not a labelling of the stored points written as
    ``format(bits, "#x")``.
    """
    if not isinstance(doc, dict):
        raise CertificateError(f"a certificate is a JSON object, not {type(doc).__name__}")
    if doc.get("schema") != CERTIFICATE_SCHEMA:
        raise CertificateError(f"unknown schema {doc.get('schema')!r}")
    try:
        mu, radius, recorded = doc["mu"], doc["radius"], doc.get("min_margin")
        _require_json_types([mu, radius], (int, float),
                            f"mu and radius must be JSON numbers, got {mu!r} and {radius!r}")
        _require_json_types([recorded], (int, float, type(None)),
                            f"min_margin must be a number or null, got {recorded!r}")
        _require_json_types(itertools.chain.from_iterable(doc["points"]), (int, float),
                            "point coordinates must be JSON numbers")
        arr = Arrangement(kind=doc["kind"], points=doc["points"], radius=radius, param=doc["param"])
        special = doc.get("special", {})
        # compared as JSON text, so an index written as 5.0 or true does not pass for 5 or 1
        if json.dumps(special, sort_keys=True) != json.dumps(arr.special, sort_keys=True):
            raise CertificateError(f"special {special!r} is not the {arr.kind} layout {arr.special!r}")
        witnesses = _load_witnesses(doc["witnesses"], arr.n)
        verified = doc["verified"]
        min_margin = float("inf") if recorded is None else float(recorded)
    except CertificateError:
        raise
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise CertificateError(f"malformed certificate: {exc}") from exc
    if not 0 < mu < math.inf:
        raise CertificateError(f"mu must be finite and positive, got {mu!r}")
    if not isinstance(verified, bool):
        raise CertificateError(f"verified must be true or false, got {verified!r}")
    if witnesses and recorded is None:
        raise CertificateError("min_margin must be a number when witnesses are stored, got null")
    # the sweep records +inf exactly when no stored witness has both labels
    if witnesses and not math.isfinite(min_margin) and not (
        min_margin == math.inf and all(w.labels.min() == w.labels.max() for w in witnesses.values())
    ):
        raise CertificateError(
            f"min_margin must be finite when a stored witness has both labels, got {recorded!r}"
        )
    return ShatterCertificate(arrangement=arr, mu=mu, witnesses=witnesses, min_margin=min_margin,
                              verified=verified)


def reverify_certificate(cert: ShatterCertificate) -> tuple[bool, str]:
    """Re-check every labelling from the stored witnesses alone.

    Runs ``verify_shattering`` with the stored witnesses as the generator,
    then compares the recomputed minimum margin with the recorded one,
    +inf included. Returns ``(ok, message)``; a certificate recorded as
    not verified fails even when every stored witness passes.
    """
    def stored(_arrangement, labeling: Labeling, _mu) -> LabeledPrototypeSet:
        if labeling.bits not in cert.witnesses:
            raise ConstructionInfeasibleError("missing from certificate")
        return cert.witnesses[labeling.bits]

    check = verify_shattering(cert.arrangement, stored, cert.mu)
    if not check.verified:
        return False, f"labelling {check.first_failure:#x}: {check.failure_reason}"
    worst = check.min_margin
    if not np.isclose(worst, cert.min_margin, rtol=1e-12, atol=0):
        return False, f"recorded min margin {cert.min_margin!r} does not match recomputed {worst!r}"
    message = f"all {len(check.witnesses)} labelings pass at mu {cert.mu:.1e} (min margin {worst:.6g})"
    if not cert.verified:
        return False, f"recorded verified=False but re-check says True: {message}"
    return True, message


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
