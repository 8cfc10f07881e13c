"""Shattering verification: exhaustive sweeps, certificates, randomized search.

One sweep, ``_outcomes``, checks every labelling of an arrangement: it
reads a stream of ``(labeling, witness or failure reason)`` items in
bitmask order and accepts a witness with the margin-aware realisation
test. Three producers feed it, each a function of the ascending bitmasks
it is handed: ``verify_shattering`` calls a per-labelling generator (the
constructions), ``reverify_certificate`` streams a certificate's stored
witnesses, and the randomized search streams the witnesses it finds.
``_swept`` sweeps the 2^n labellings in parts: one, in this process,
or, for a large enough sweep on a platform that can fork (see
``_parts``), one per CPU, in the standard library's process pool with
forked workers. ``_certify`` collects every part's passing witnesses
into per-count stacks ``(bits, prototypes, labels)``, and one merge puts
the parts' stacks in bitmask order into the certificate. The result is a
self-contained certificate that can be re-verified later without the
generator.
``certificate_to_dict`` and
``certificate_from_dict`` are the JSON form of a certificate (schema
``vcnn-certificate/1``); ``certificate_json`` writes the same text as
``json.dumps`` of that document from the stacks, and the loader reads
the witnesses back into stacks. The polytope witness file (schema
``vcnn-polytope-witness/1``) is the ``--square`` document of its seed:
``_square_witness`` builds it, and re-verification rebuilds it from the
stored seed and compares the two field by field.

``search_lower_bound`` is the randomized complement to the constructive
witnesses: it samples point sets and certifies each through the same
sweep, hill-climbing a chunk of labellings at a time in one lockstep
batch, a chunk only when the sweep reaches it. Finding a certificate proves
the lower bound for that n; not finding one proves nothing and is always
reported as a budget-limited negative, never as impossibility. Swapping
every prototype's label realises the complement labelling ``~L`` at the
same margins, so the search climbs only the lower member ``min(L, ~L)``
of each pair, and ``~L`` takes its witness with the labels negated (or
its failure reason), which the sweep checks like any other.
Deterministic for a fixed seed: every climbed labelling derives its own
child seed, and a part holds both members of each pair, so results
depend neither on evaluation order nor on chunking, and so neither on
the number of parts. ``shatter_coefficient_exhaustive``
counts the labellings one sweep of the search realises, in parts too,
so every count is even, and reads only a ``SearchBudget``;
``search_lower_bound`` takes a ``SearchConfig``, a budget plus what it samples.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .classifier import (
    DEFAULT_MU,
    LabeledPrototypeSet,
    Labeling,
    check_int,
    check_mu,
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

    ``witnesses`` maps each prototype count m to the stacks ``(bits,
    prototypes, labels)`` of the witnesses of m prototypes: the ascending
    bitmasks (k,) of the labellings they realise, coordinates (k, m, d)
    and labels (k, m); no stack is empty. ``verified`` is True only when
    every labelling passed at margin ``mu``. Certificates re-verify from
    their serialized form alone.
    """

    arrangement: Arrangement
    mu: float
    witnesses: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = field(default_factory=dict)
    min_margin: float = float("inf")
    verified: bool = False
    first_failure: int | None = None
    failure_reason: str | None = None


def check_exhaustive(n: int) -> None:
    """Raise ``InvalidInputError`` when the 2^n labellings of n points are too many to sweep."""
    if n > _MAX_EXHAUSTIVE_N:
        raise InvalidInputError(f"2^{n} labelings is beyond desk scale")


def verify_shattering(arrangement: Arrangement, generator, mu: float = DEFAULT_MU) -> ShatterCertificate:
    """Certify ``arrangement`` with ``generator(arrangement, labeling, mu)`` as the witness source.

    The generator is told the margin ``mu`` it must meet and raises
    ``ConstructionInfeasibleError`` when it has no witness; the error's
    text becomes the labelling's failure reason. Each witness must pass
    the sweep's checks (see ``_outcomes``), and the sweep stops at the
    first labelling that fails. Any other exception the generator raises
    propagates, from a forked worker too (see ``_certify``).
    """
    def called(bitmasks):
        for bits in bitmasks:
            labeling = Labeling(bits, arrangement.n)
            try:
                found = generator(arrangement, labeling, mu)
            except ConstructionInfeasibleError as exc:
                found = str(exc)
            yield labeling, found

    return _certify(arrangement, mu, called)


# Sweeps of at least this much work are split across forked workers: a
# labelling counts once, and a search's labelling once per restart. Below
# it the workers cost more than they save: takacs n=4 (1,024 labellings)
# was no faster in two parts, takacs n=5 (4,096) was.
_FORK_LABELLINGS = 1 << 12


def _parts(n: int, restarts: int = 1) -> int:
    """How many parts the sweep of the 2^n labellings of n points is split into.

    One per CPU this process may run on once ``2^n * restarts`` reaches
    ``_FORK_LABELLINGS``, on a platform that can fork; 1, an in-process
    sweep, otherwise. ``restarts`` is the search's restarts per labelling,
    1 for any other sweep: the one rule for constructions,
    re-verification, searches and counts.
    """
    if (1 << n) * restarts < _FORK_LABELLINGS or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _certify(arrangement: Arrangement, mu: float, produce, keep: bool = True,
             restarts: int = 1) -> ShatterCertificate:
    """The certificate of the sweep over ``produce(bitmasks)``.

    ``produce`` maps ascending labelling bitmasks to the sweep's stream
    of their items (see ``_outcomes``). Stops at the first failing
    labelling and records it; failure is data, not an exception. The
    passing witnesses are recorded when ``keep``. Refuses more than
    ``_MAX_EXHAUSTIVE_N`` points and a ``mu`` that is not finite and
    positive before any labelling is produced. The sweep runs in the parts
    ``_parts`` sets for its ``restarts`` per labelling, and their
    ``_collected`` replies (see ``_swept``) make the certificate in
    ``_merged``.
    """
    check_exhaustive(arrangement.n)
    check_mu(mu)
    replies = _swept(arrangement, mu, produce, functools.partial(_collected, keep=keep), restarts)
    witnesses, min_margin, failure = _merged(replies)
    first, reason = failure or (None, None)
    return ShatterCertificate(arrangement=arrangement, mu=float(mu), witnesses=witnesses, min_margin=min_margin,
                              verified=failure is None, first_failure=first, failure_reason=reason)


def _swept(arrangement: Arrangement, mu: float, produce, tally, restarts: int = 1) -> list:
    """``tally(arrangement, mu, stream, stop)`` of every part of the sweep over ``produce(bitmasks)``.

    With one part (see ``_parts``, for ``restarts`` per labelling) the
    stream is all 2^n labellings, swept in this process, and ``stop`` is
    None; with more, the parts are swept by ``_forked``.
    """
    parts = _parts(arrangement.n, restarts)
    if parts == 1:
        return [tally(arrangement, mu, produce(range(1 << arrangement.n)), None)]
    return _forked(arrangement, mu, produce, parts, tally)


def _forked(arrangement: Arrangement, mu: float, produce, parts: int, tally) -> list:
    """The tallies of ``parts`` parts, swept in a pool of forked workers (see ``_part``).

    Every tally is handed the one shared ``stop`` value. An exception a
    part raises is raised here, with its type and text; a worker that
    dies raises ``BrokenProcessPool``. Every worker has exited before this
    returns or raises.
    """
    import multiprocessing   # only a sweep that forks pays for the imports
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    stop = context.Value("q", 1 << arrangement.n)   # the lowest failing bitmask found so far
    gc.freeze()   # a worker's collections would otherwise write to, and so copy, the parent's heap
    try:
        # forked workers inherit the initializer's arguments, so they are not pickled
        with ProcessPoolExecutor(parts, mp_context=context, initializer=_start_worker,
                                 initargs=(arrangement, mu, produce, parts, stop, tally)) as pool:
            try:
                return list(pool.map(_part, range(parts)))
            except BaseException:
                stop.value = -1   # every part stops at its next labelling before the pool shuts down
                raise
    finally:
        gc.unfreeze()


# The sweep ``(arrangement, mu, produce, parts, stop, tally)`` whose parts a
# forked worker sweeps; set only in a worker, by ``_start_worker``.
_worker_sweep = None


def _start_worker(*sweep) -> None:
    """A forked worker's initializer: hold the sweep whose parts it is handed (see ``_part``)."""
    global _worker_sweep
    _worker_sweep = sweep


def _part(part: int):
    """The tally of part ``part`` of the sweep ``_start_worker`` holds.

    Part ``part`` holds every labelling ``L`` with ``min(L, ~L) % parts ==
    part``, so both members of a complementary pair fall in one part. Its
    labellings are produced in ascending order for as long as the tally
    reads them, up to the first one above ``stop.value``, the lowest
    failing bitmask any part has found. An exception sets ``stop.value``
    to -1, so every other part stops at its next labelling, and is raised
    again.
    """
    arrangement, mu, produce, parts, stop, tally = _worker_sweep
    full = (1 << arrangement.n) - 1

    def bitmasks():
        for bits in range(full + 1):
            if min(bits, bits ^ full) % parts == part:
                if bits > stop.value:
                    return
                yield bits

    try:
        return tally(arrangement, mu, produce(bitmasks()), stop)
    except BaseException:
        stop.value = -1
        raise


def _collected(arrangement: Arrangement, mu: float, stream, stop, keep: bool):
    """The sweep of ``stream`` up to its first failure: ``(bits, worsts, failure, stacks)``.

    ``bits`` and ``worsts`` are arrays of the passing labellings and their
    minimum margins, ``failure`` is ``(bits, reason)`` of the failing one
    or None, and ``stacks`` holds the passing witnesses as a certificate
    does (see ``ShatterCertificate``) when ``keep``, and is empty otherwise.
    In a forked part, once the witnesses are stacked, a failure lowers
    the shared ``stop`` to its bitmask, so the other parts stop past it.
    """
    passed, worsts, failure, kept = [], [], None, {}
    for bits, witness, worst, reason in _outcomes(arrangement, mu, stream):
        if reason is not None:
            failure = bits, reason
            break
        passed.append(bits)
        worsts.append(worst)
        if keep:
            kept.setdefault(witness.m, []).append((bits, witness))
    stacks = {
        m: (np.array([bits for bits, _ in group], dtype=np.int64), np.stack([w.prototypes for _, w in group]),
            np.stack([w.labels for _, w in group]))
        for m, group in kept.items()
    }
    if failure is not None and stop is not None:
        with stop.get_lock():
            stop.value = min(stop.value, failure[0])
    return np.array(passed, dtype=np.int64), np.array(worsts, dtype=np.float64), failure, stacks


def _realised(arrangement: Arrangement, mu: float, stream, stop) -> int:
    """How many items of ``stream`` pass the sweep's checks.

    Reads every item, past any failure, so it never lowers ``stop``.
    """
    return sum(failure is None for *_, failure in _outcomes(arrangement, mu, stream))


def _merged(replies: list):
    """The certificate's ``(witnesses, min_margin, failure)`` from the ``_collected`` replies of its parts.

    ``failure`` is the first failure of any part. Every labelling below it
    was swept by its part, so the stacks, merged in bitmask order and cut
    below it, and their least margin are those of one sweep in bitmask
    order; a part's labellings past it are dropped.
    """
    failure = min((failure for _, _, failure, _ in replies if failure is not None), default=None)
    limit = math.inf if failure is None else failure[0]
    min_margin = min((float(worsts[bits < limit].min(initial=math.inf)) for bits, worsts, _, _ in replies),
                     default=math.inf)
    witnesses = {}
    for m in sorted({m for *_, stacks in replies for m in stacks}):
        bits, prototypes, labels = (np.concatenate(column) for column in
                                    zip(*(stacks[m] for *_, stacks in replies if m in stacks)))
        order = np.argsort(bits)
        order = order[bits[order] < limit]
        if len(order):
            witnesses[m] = bits[order], prototypes[order], labels[order]
    return witnesses, min_margin, failure


def _outcomes(arrangement: Arrangement, mu: float, stream):
    """The sweep: ``(bits, witness, worst, failure)`` of every item of ``stream``.

    ``stream`` yields ``(labeling, witness or failure reason)`` for
    labellings of the arrangement in ascending bitmask order: all of
    them, or one part's (see ``_part``). Every witness is checked here,
    once: it may use at most ``arrangement.budget`` prototypes and must
    realise its labelling at margin ``mu``. ``failure`` is None when it
    does, and says why not otherwise. The stream is read only as far as
    the caller reads the outcomes. The size and ``mu`` are the callers' to
    check: ``_certify`` checks both, ``shatter_coefficient_exhaustive``
    its own size cap, and a ``SearchBudget`` its ``mu``.
    """
    budget = arrangement.budget
    for labeling, found in stream:
        if isinstance(found, str):
            yield labeling.bits, None, None, found
        elif found.m > budget:
            yield labeling.bits, None, None, f"witness uses {found.m} prototypes, over the budget of {budget}"
        else:
            ok, worst = realisation(found, arrangement.points, labeling.array, mu)
            failure = None if ok else f"witness misclassifies or undercuts margin (min {worst:.3e})"
            yield labeling.bits, found, worst, failure


_STEP_INIT = 0.25   # first hill-climb step, as a fraction of the point set's extent
_STEP_DECAY = 0.5   # step factor after a sweep that improves nothing

# Rows (labellings x restarts) the search climbs in one lockstep batch:
# enough to spread NumPy's per-call cost, few enough that the sweep's stop
# at a failing labelling wastes little and the batch stays small in memory.
_BATCH_ROWS = 512

# The search's largest array is the kernel's coordinate differences of
# every row, prototype and point of a batch: at most max(trials,
# _BATCH_ROWS) x m x n x d float64s. A budget past this many elements
# (512 MiB) is refused before any array is built: up to 512 trials, at
# most m * n * d = 2^17.
_MAX_SEARCH_ELEMENTS = 1 << 26


def _check_search_size(trials: int, m: int, n: int, d: int) -> None:
    """Raise ``InvalidInputError`` if a search's largest array would pass ``_MAX_SEARCH_ELEMENTS``."""
    size = max(trials, _BATCH_ROWS) * m * n * d
    if size > _MAX_SEARCH_ELEMENTS:
        raise InvalidInputError(
            f"a search of {trials} trials with {m} prototypes on {n} points in R^{d} needs arrays of "
            f"{size} elements, over the limit of {_MAX_SEARCH_ELEMENTS}")


@dataclass(frozen=True, kw_only=True)
class SearchBudget:
    """Budget, seeding and margin of one search. Keyword-only, as is ``SearchConfig``.

    Refuses, with ``InvalidInputError``, a ``trials`` or ``steps`` that is
    not an integer >= 1, an ``rng_seed`` that is not an integer >= 0 and a
    ``mu`` that is not finite and positive.
    """

    trials: int = 24          # prototype restarts per labelling
    steps: int = 120          # hill-climb sweeps per restart
    rng_seed: int = 0
    mu: float = DEFAULT_MU

    def __post_init__(self):
        for name in ("trials", "steps"):
            check_int(name, getattr(self, name), 1)
        check_int("rng_seed", self.rng_seed, 0)
        check_mu(self.mu)


@dataclass(frozen=True, kw_only=True)
class SearchConfig(SearchBudget):
    """A ``SearchBudget`` plus what ``search_lower_bound`` samples: ``point_sets`` sets of n points in R^d.

    Also refuses a ``d``, ``m``, ``n`` or ``point_sets`` that is not an
    integer >= 1, and a search too large to allocate (see
    ``_MAX_SEARCH_ELEMENTS``) before any point set is sampled.
    """

    d: int
    m: int
    n: int
    point_sets: int = 3       # independently sampled point sets

    def __post_init__(self):
        for name in ("d", "m", "n", "point_sets"):
            check_int(name, getattr(self, name), 1)
        super().__post_init__()
        _check_search_size(self.trials, self.m, self.n, self.d)


def _restart_pool(rng: np.random.Generator, points: np.ndarray, target: np.ndarray,
                  trials: int, m: int, box: tuple, scale: float):
    """Initial positions and labels of m prototypes for each of ``trials`` restarts.

    Half the restarts start from jittered sample points carrying the
    target labels (a condensing-style initializer), the rest are uniform
    in the twice-inflated bounding box with random labels: ``box`` is
    ``(lo, hi, signs)``, the box's corners and the labels ``[-1, 1]``.
    """
    n, d = points.shape
    idx = rng.integers(0, n, size=(trials, m))
    inits = points[idx] + rng.normal(0.0, 0.02 * scale, size=(trials, m, d))
    labels = target[idx]
    n_uniform = trials // 2
    if n_uniform:
        lo, hi, signs = box
        inits[-n_uniform:] = rng.uniform(lo, hi, size=(n_uniform, m, d))
        labels[-n_uniform:] = rng.choice(signs, size=(n_uniform, m))
    return inits, labels.astype(np.int64)


def _searched(budget: SearchBudget, ps: int, arrangement: Arrangement, bitmasks):
    """The sweep's stream for point set ``ps``: ``(labeling, witness or reason)`` found by search.

    Only the lower member ``L = min(L, ~L)`` of each complementary pair
    is climbed; its complement ``~L`` takes ``L``'s witness with every
    label negated (``LabeledPrototypeSet.negated``), or ``L``'s failure
    reason, and the sweep checks it like any other witness. The
    ascending ``bitmasks`` are read in chunks of about ``_BATCH_ROWS``
    rows (labellings x ``budget.trials``), only when the sweep reads a
    chunk's first labelling, and the chunk's lower members are climbed in
    one ``kernels.search_batch`` call. An upper member whose lower member
    came neither in its chunk nor before it is climbed too. Places
    ``arrangement.budget`` prototypes. Restarts are seeded with
    ``[rng_seed, ps, bits]`` of the climbed labelling, so a witness
    depends neither on chunk boundaries nor on evaluation order. A
    labelling no restart realises at margin 2 mu gets a failure reason in
    place of a witness. The restarts' bounding box is computed once per
    point set. A complement is held only until it is read.
    """
    points, n = arrangement.points, arrangement.n
    high, low = points.max(axis=0), points.min(axis=0)
    span = high - low
    scale = max(float(span.max()), 1e-6)
    centre = 0.5 * (high + low)
    box = centre - span, centre + span, np.array([-1, 1])
    chunk = max(1, _BATCH_ROWS // budget.trials)
    top, full = n - 1, (1 << n) - 1   # bit n-1 is set exactly in the upper member of a pair
    found = {}   # the results of a chunk's climbs, and each climbed lower member's complement, until read
    bitmasks = iter(bitmasks)
    while batch := list(itertools.islice(bitmasks, chunk)):
        members = set(batch)
        climb = [bits for bits in batch if bits not in found and not (bits >> top and bits ^ full in members)]
        if climb:
            for bits, result in zip(climb, _climbed(budget, ps, arrangement, climb, box, scale)):
                found[bits] = result
                if not bits >> top:
                    found[bits ^ full] = result if isinstance(result, str) else result.negated()
        for bits in batch:
            yield Labeling(bits, n), found.pop(bits)


def _climbed(budget: SearchBudget, ps: int, arrangement: Arrangement, batch: list[int], box: tuple,
             scale: float) -> list:
    """The witness or failure reason of each labelling of ``batch``, climbed in one ``kernels.search_batch`` call."""
    points, mu = arrangement.points, budget.mu
    labelings = [Labeling(bits, arrangement.n) for bits in batch]
    pools = [
        _restart_pool(np.random.default_rng([budget.rng_seed, ps, lab.bits]), points, lab.array,
                      budget.trials, arrangement.budget, box, scale)
        for lab in labelings
    ]
    init_labels = np.stack([labels for _, labels in pools])
    best, protos, ridx = kernels.search_batch(
        points, np.array([lab.array for lab in labelings]), np.stack([inits for inits, _ in pools]),
        init_labels, budget.steps, _STEP_INIT * scale, _STEP_DECAY, 2.0 * mu, 1e-6 * scale,
    )
    labels = init_labels[np.arange(len(labelings)), ridx]
    results = []
    for margin, witness_protos, witness_labels in zip(best, protos, labels):
        if margin < 2.0 * mu:
            results.append(f"no witness within budget (best margin {margin:.3e})")
            continue
        try:
            results.append(LabeledPrototypeSet(witness_protos, witness_labels))
        except InvalidInputError as exc:
            results.append(f"search witness rejected: {exc}")
    return results


def search_lower_bound(cfg: SearchConfig):
    """Certify by search that some n-point set in R^d is shattered by 1NN(d, m).

    Returns the certificate of the first sampled point set whose every
    labelling is realised at margin mu, and ``None`` when there is none. A
    negative outcome only means the budget was exhausted. Only the lower
    member of each complementary pair is climbed (see ``_searched``), so
    a certificate's upper half holds the lower half's witnesses with every
    label negated.
    """
    for ps in range(cfg.point_sets):
        points = np.random.default_rng([cfg.rng_seed, ps]).uniform(-1.0, 1.0, size=(cfg.n, cfg.d))
        arrangement = Arrangement(kind="search", points=points, radius=1.0, param=cfg.m)
        cert = _certify(arrangement, cfg.mu, functools.partial(_searched, cfg, ps, arrangement), restarts=cfg.trials)
        if cert.verified:
            return cert
    return None


def shatter_coefficient_exhaustive(points, m: int, budget: SearchBudget) -> int:
    """Count the labelings of ``points`` the search can realise with m prototypes.

    A lower bound on the shatter coefficient: search failures undercount,
    successes are margin-verified so the count never exceeds the truth.
    Only the lower member of each complementary pair is climbed (see
    ``_searched``), and its complement passes exactly when it does, so
    the count is twice the realised lower members: always even. The size
    cap is checked once, here, with ``m`` and the points' own n and d.
    ``m`` and ``points`` that ``Arrangement`` refuses, and a search too
    large to allocate, raise ``InvalidInputError``. The sweep reads every
    labelling, in the parts every sweep runs in (see ``_parts``).
    """
    arrangement = Arrangement(kind="search", points=points, radius=1.0, param=m)
    if arrangement.n > _MAX_COEFFICIENT_N:
        raise InvalidInputError(f"2^{arrangement.n} labelings is beyond desk scale for counting")
    _check_search_size(budget.trials, m, *arrangement.points.shape)
    produce = functools.partial(_searched, budget, 0, arrangement)
    return sum(_swept(arrangement, budget.mu, produce, _realised, budget.trials))


# ---------------------------------------------------------------------------
# certificate files


def _header(cert: ShatterCertificate, generator: str, meta: dict | None) -> dict:
    """Every field of ``cert``'s JSON document but ``"witnesses"``."""
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
    }
    if cert.first_failure is not None:
        doc["first_failure"] = format(cert.first_failure, "#x")
        doc["failure_reason"] = cert.failure_reason
    if meta is not None:
        doc["meta"] = meta
    return doc


def certificate_to_dict(cert: ShatterCertificate, generator: str, meta: dict | None = None) -> dict:
    """The JSON document of ``cert``: hex bitmask keys, full-precision floats.

    ``meta`` (timestamps, tool version) is stored under ``"meta"`` unless
    it is None, so the rest of the document is byte-reproducible.
    """
    doc = _header(cert, generator, meta)
    doc["witnesses"] = {
        format(b, "#x"): {"prototypes": p, "labels": l}
        for bits, protos, labels in cert.witnesses.values()
        for b, p, l in zip(bits.tolist(), protos.tolist(), labels.tolist())
    }
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


def _witness_entries(witnesses: dict) -> list[str]:
    """The text of every witness entry of the stacks ``witnesses``, in the order of their JSON keys."""
    keyed = []
    for m, (bits, protos, labels) in witnesses.items():
        k, _, d = protos.shape
        fields = np.concatenate([
            np.array([format(b, "#x") for b in bits.tolist()], dtype=object).reshape(k, 1),
            _rendered(labels.ravel(), int.__repr__).reshape(k, m),
            _rendered(protos.ravel(), float.__repr__).reshape(k, m * d),
        ], axis=1)
        template = _entry_template(m, d)
        keyed += [(row[0], template.format(*row)) for row in fields.tolist()]
    keyed.sort(key=lambda entry: entry[0])
    return [text for _, text in keyed]


def certificate_json(cert: ShatterCertificate, generator: str, meta: dict | None = None) -> str:
    """``json.dumps(certificate_to_dict(cert, generator, meta), sort_keys=True, indent=2) + "\\n"``.

    The same bytes, built from the prototype arrays: every field but
    ``"witnesses"`` (the last key in sorted order) is ``json.dumps`` of the
    header ``certificate_to_dict`` starts from, so the schema has one
    definition; the witness table is filled in from one text template per
    prototype shape, with ``float.__repr__`` (what ``json`` writes) run
    once per distinct coordinate bit pattern of each shape.
    """
    head = json.dumps(_header(cert, generator, meta), sort_keys=True, indent=2)
    prefix = head[: -len("\n}")] + ',\n  "witnesses": '
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


def _parsed_block(block: list[tuple[int, dict]], d: int) -> tuple[np.ndarray, np.ndarray]:
    """The (k, m, d) coordinate and (k, m) label stacks of the k entries of ``block``, all of m prototypes.

    Raises ``ValueError`` (``InvalidInputError`` and ``CertificateError``
    included), ``TypeError`` or ``OverflowError`` for a block with an
    entry that is not a valid witness in R^d; the message names the field,
    not the entry.
    """
    label_rows = [val["labels"] for _, val in block]
    proto_rows = [val["prototypes"] for _, val in block]
    row_kinds = set(map(type, itertools.chain.from_iterable(proto_rows)))
    if not all(issubclass(kind, list) for kind in row_kinds):
        raise CertificateError("prototypes must be a JSON list of coordinate lists")
    _require_json_types(itertools.chain.from_iterable(label_rows), (int,), "labels must be JSON integers +1 or -1")
    _require_json_types(itertools.chain.from_iterable(itertools.chain.from_iterable(proto_rows)),
                        (int, float), "prototype coordinates must be JSON numbers")
    dims = set(map(len, itertools.chain.from_iterable(proto_rows))) - {d}
    if dims:
        raise CertificateError(f"prototypes are in R^{min(dims)}, not in R^{d} with the points")
    protos, labels = np.array(proto_rows, dtype=np.float64), np.array(label_rows, dtype=np.int64)
    check_prototype_stack(protos, labels)
    return protos, labels


def _load_witnesses(entries: dict, n: int, d: int) -> dict:
    """The witness stacks (see ``ShatterCertificate``) of a ``"witnesses"`` table over n points in R^d.

    Entries are grouped by prototype count and sorted by bitmask; each
    group is parsed, up to ``_LOAD_ROWS`` entries at a time, into its (k,
    m, d) coordinate and (k, m) label stacks with ``_parsed_block``.
    Labels must be JSON integers and coordinates JSON numbers. Raises
    ``CertificateError`` for a key that is not a labelling of n points
    written as ``format(bits, "#x")``, for a table or an entry that is not
    a JSON object, and for an entry whose ``prototypes`` are not a list of
    lists or whose ``labels`` are not a list of one label per prototype;
    a refused block is parsed again an entry at a time, and the error
    names the key of the first entry refused.
    """
    if not isinstance(entries, dict):
        raise CertificateError("witnesses must be a JSON object keyed by labelling")
    groups: dict[int, list[tuple[int, dict]]] = {}
    for key, val in entries.items():
        bits = int(key, 16)
        if key != format(bits, "#x"):
            raise CertificateError(f"witness key {key!r} is not written as {bits:#x}")
        if not 0 <= bits < 1 << n:
            raise CertificateError(f"witness key {bits:#x} is not a labelling of {n} points")
        if not isinstance(val, dict):
            raise CertificateError(f"witness {key} must be a JSON object with prototypes and labels")
        val_protos, val_labels = val.get("prototypes"), val.get("labels")
        if not isinstance(val_protos, list):
            raise CertificateError(f"witness {key} prototypes must be a JSON list of coordinate lists")
        if not isinstance(val_labels, list) or len(val_labels) != len(val_protos):
            raise CertificateError(f"witness {key} labels must be a JSON list of one label per prototype")
        groups.setdefault(len(val_protos), []).append((bits, val))
    witnesses = {}
    for m, group in sorted(groups.items()):
        group.sort(key=lambda entry: entry[0])
        protos, labels = np.empty((len(group), m, d)), np.empty((len(group), m), dtype=np.int64)
        # a block of rows at a time bounds the temporaries of parsing and checking
        for lo in range(0, len(group), _LOAD_ROWS):
            block = group[lo : lo + _LOAD_ROWS]
            try:
                protos[lo : lo + len(block)], labels[lo : lo + len(block)] = _parsed_block(block, d)
            except (OverflowError, TypeError, ValueError):
                # only a refused block looks for the entry to name
                for entry in block:
                    try:
                        _parsed_block([entry], d)
                    except (OverflowError, TypeError, ValueError) as exc:
                        raise CertificateError(f"witness {entry[0]:#x} {exc}") from exc
                raise
        witnesses[m] = np.array([bits for bits, _ in group], dtype=np.int64), protos, labels
    return witnesses


def certificate_from_dict(doc: dict) -> ShatterCertificate:
    """The certificate stored in a ``certificate_to_dict`` document.

    Raises ``CertificateError`` for an unknown schema, a malformed
    document, ``points`` that are not a list of coordinate lists, a
    ``witnesses`` table or entry that is not an object, an arrangement
    ``Arrangement`` refuses (among them takacs or gunn ``points`` that are
    not the layout ``kind``, ``param`` and ``radius`` build), a stored
    ``special`` (missing reads as ``{}``) other than the one ``kind`` and
    ``param`` derive, a ``mu``, ``radius`` or coordinate that is not a
    JSON number, a margin ``mu`` that is not finite and positive, a
    ``verified`` that is not a JSON boolean, a ``min_margin`` that is not
    a number (or null when no witness is stored) or is not finite although
    a stored witness has both labels, a witness whose ``prototypes`` are
    not a list of coordinate lists or whose ``labels`` are not a list of
    one label per prototype, a witness label that is not a JSON integer +1
    or -1, or a witness key that is not a labelling of the stored points
    written as ``format(bits, "#x")``.
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
        _require_json_types([doc["points"]], (list,), "points must be a JSON list of coordinate lists")
        _require_json_types(doc["points"], (list,), "points must be a JSON list of coordinate lists")
        _require_json_types(itertools.chain.from_iterable(doc["points"]), (int, float),
                            "point coordinates must be JSON numbers")
        arr = Arrangement(kind=doc["kind"], points=doc["points"], radius=radius, param=doc["param"])
        special = doc.get("special", {})
        # compared as JSON text, so an index written as 5.0 or true does not pass for 5 or 1
        if json.dumps(special, sort_keys=True) != json.dumps(arr.special, sort_keys=True):
            raise CertificateError(f"special {special!r} is not the {arr.kind} layout {arr.special!r}")
        witnesses = _load_witnesses(doc["witnesses"], *arr.points.shape)
        verified = doc["verified"]
        min_margin = float("inf") if recorded is None else float(recorded)
        check_mu(mu)
    except CertificateError:
        raise
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise CertificateError(f"malformed certificate: {exc}") from exc
    if not isinstance(verified, bool):
        raise CertificateError(f"verified must be true or false, got {verified!r}")
    if witnesses and recorded is None:
        raise CertificateError("min_margin must be a number when witnesses are stored, got null")
    # the sweep records +inf exactly when no stored witness has both labels
    if witnesses and not math.isfinite(min_margin) and not (
        min_margin == math.inf and all((labels == labels[:, :1]).all() for *_, labels in witnesses.values())
    ):
        raise CertificateError(
            f"min_margin must be finite when a stored witness has both labels, got {recorded!r}"
        )
    return ShatterCertificate(arrangement=arr, mu=float(mu), witnesses=witnesses, min_margin=min_margin,
                              verified=verified)


def reverify_certificate(cert: ShatterCertificate) -> tuple[bool, str]:
    """Re-check every labelling from the stored witnesses alone.

    Runs the sweep over the stored witnesses, a missing one failing its
    labelling, then compares the recomputed minimum margin with the
    recorded one, +inf included. Returns ``(ok, message)``; a certificate recorded as
    not verified fails even when every stored witness passes.
    """
    n = cert.arrangement.n
    witnesses = {}
    for bits, prototypes, labels in cert.witnesses.values():
        witnesses.update(zip(bits.tolist(), LabeledPrototypeSet.from_checked_stack(prototypes, labels)))

    def stored(bitmasks):
        return ((Labeling(bits, n), witnesses.get(bits, "missing from certificate")) for bits in bitmasks)

    check = _certify(cert.arrangement, cert.mu, stored, keep=False)
    if not check.verified:
        return False, f"labelling {check.first_failure:#x}: {check.failure_reason}"
    worst = check.min_margin
    if not np.isclose(worst, cert.min_margin, rtol=1e-12, atol=0):
        return False, f"recorded min margin {cert.min_margin!r} does not match recomputed {worst!r}"
    message = f"all {1 << n} labelings pass at mu {cert.mu:.1e} (min margin {worst:.6g})"
    if not cert.verified:
        return False, f"recorded verified=False but re-check says True: {message}"
    return True, message


def _square_witness(seed: int) -> tuple[dict, int]:
    """The ``--square`` polytope witness document of ``seed``, without ``meta``, and the samples its check kept.

    The unit square ``|x|, |y| <= 1``, its reflection witness about the
    origin with inside label +1, and the sampled check: 10,000 points drawn
    uniformly from ``[-3, 3]^2`` with ``seed``, those within ``1e-6`` of
    the boundary dropped, and the disagreements between membership and 1NN
    labels counted. ``"verified"`` is True iff no kept sample disagrees. A
    ``seed`` that is not an integer >= 0 raises ``InvalidInputError``.
    """
    check_int("seed", seed, 0)
    square = ConvexPolytope(tuple(Halfspace(np.array(normal), 1.0)
                                  for normal in ([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0])))
    interior = np.zeros(2)
    witness = polytope_to_prototypes(square, interior, 1)
    check = {"seed": seed, "n_samples": 10000, "box_halfwidth": 3.0, "band": 1e-6}
    samples = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(10000, 2))
    member = contains_many(square, samples, tol=1e-6)
    keep = member != 0
    got, _ = evaluate_margins(witness, samples[keep])
    check["disagreements"] = int((got != member[keep]).sum())   # inside is +1, so a kept label is its membership
    doc = {
        "schema": POLYTOPE_SCHEMA,
        "kind": "polytope",
        "facets": {
            "normals": [f.normal.tolist() for f in square.facets],
            "offsets": [f.offset for f in square.facets],
        },
        "interior": interior.tolist(),
        "inside_label": 1,
        "prototypes": witness.prototypes.tolist(),
        "labels": witness.labels.tolist(),
        "check": check,
        "verified": check["disagreements"] == 0,
    }
    return doc, int(keep.sum())


def polytope_witness_to_dict(seed: int, meta: dict | None = None) -> dict:
    """The ``--square`` polytope witness document of ``seed``: reflection prototypes plus a sampled check.

    ``meta`` is stored as in ``certificate_to_dict``. A ``seed`` that is
    not an integer >= 0 raises ``InvalidInputError``.
    """
    doc, _ = _square_witness(seed)
    if meta is not None:
        doc["meta"] = meta
    return doc


def reverify_polytope_witness(doc: dict) -> tuple[bool, str]:
    """Check a ``polytope_witness_to_dict`` document by rebuilding it from its ``check.seed``.

    Raises ``CertificateError`` when ``check.seed`` is not a JSON integer
    >= 0, when a field other than ``meta`` and ``verified`` is missing,
    extra, or differs as JSON text from the rebuilt document's, and when
    ``verified`` is not a JSON boolean. Fails when a sample of the
    rebuilt check disagrees and when the file records ``"verified": false``.
    """
    check = doc.get("check")
    seed = check.get("seed") if isinstance(check, dict) else None
    try:
        check_int("check.seed", seed, 0)
    except InvalidInputError as exc:
        raise CertificateError(f"malformed polytope witness: {exc}") from exc
    want, kept = _square_witness(seed)
    for key in sorted((doc.keys() | want.keys()) - {"meta", "verified"}):
        # compared as JSON text, as certificate_from_dict compares special
        if key not in doc or key not in want or (
                json.dumps(doc[key], sort_keys=True) != json.dumps(want[key], sort_keys=True)):
            raise CertificateError(f"malformed polytope witness: {key} differs from the --square "
                                   f"document of seed {seed}")
    verified = doc.get("verified")
    if not isinstance(verified, bool):
        raise CertificateError(f"malformed polytope witness: verified must be true or false, got {verified!r}")
    if want["check"]["disagreements"]:
        return False, f"{want['check']['disagreements']} membership/classification disagreements"
    message = f"membership and classification agree on {kept} samples"
    if not verified:
        return False, f"recorded verified=False but re-check says True: {message}"
    return True, message
