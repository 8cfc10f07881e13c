import functools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import vcnn
from conftest import stored_bits, witness_rows
from vcnn import kernels, verification
from vcnn.classifier import LabeledPrototypeSet, Labeling, evaluate_margins
from vcnn.constructions import (
    Arrangement,
    gunn_arrangement,
    gunn_shatter,
    takacs_arrangement,
    takacs_shatter,
)
from vcnn.errors import CertificateError, ConstructionInfeasibleError, InvalidInputError
from vcnn.geometry import DEFAULT_TOL, regular_polygon_vertices
from vcnn.verification import (
    SearchBudget,
    SearchConfig,
    ShatterCertificate,
    certificate_from_dict,
    certificate_json,
    certificate_to_dict,
    reverify_certificate,
    search_lower_bound,
    shatter_coefficient_exhaustive,
    verify_shattering,
)


class TestVerifyShattering:
    def test_reports_first_corrupted_labelling(self):
        arr = takacs_arrangement(2)
        bad_bits = 11

        def corrupted(arrangement, labeling, mu):
            witness = takacs_shatter(arrangement, labeling, mu)
            if labeling.bits == bad_bits:
                return LabeledPrototypeSet(witness.prototypes, -witness.labels)
            return witness

        cert = verify_shattering(arr, corrupted)
        assert not cert.verified
        assert cert.first_failure == bad_bits
        assert "misclassifies" in cert.failure_reason or "margin" in cert.failure_reason

    def test_witness_over_budget_fails(self):
        bad_bits = 11

        def padded(arrangement, labeling, mu):
            witness = takacs_shatter(arrangement, labeling, mu)
            if labeling.bits == bad_bits:
                # a far prototype changes no label or margin, only the count
                return LabeledPrototypeSet(
                    np.vstack([witness.prototypes, [[100.0, 100.0]]]), np.append(witness.labels, 1)
                )
            return witness

        cert = verify_shattering(takacs_arrangement(2), padded)
        assert not cert.verified
        assert cert.first_failure == bad_bits
        assert "budget" in cert.failure_reason

    def test_generator_is_told_mu(self):
        seen = set()

        def recording(arrangement, labeling, mu):
            seen.add(mu)
            return takacs_shatter(arrangement, labeling, mu)

        assert verify_shattering(takacs_arrangement(2), recording, mu=2e-3).verified
        assert seen == {2e-3}

    def test_gunn_verifies_up_to_its_margin_ratio(self):
        assert verify_shattering(gunn_arrangement(5), gunn_shatter, mu=1e-3).verified
        with pytest.raises(InvalidInputError, match="mu / radius"):
            verify_shattering(gunn_arrangement(5), gunn_shatter, mu=2e-3)
        # only the ratio matters: the same margin at a larger circle is fine
        assert verify_shattering(gunn_arrangement(4, radius=2.0), gunn_shatter, mu=2e-3).verified

    def test_margin_threshold_failure_is_data(self):
        arr = takacs_arrangement(2)
        # an absurd margin demand fails without raising
        cert = verify_shattering(arr, takacs_shatter, mu=10.0)
        assert not cert.verified
        assert cert.first_failure is not None

    @pytest.mark.parametrize("mu", [0.0, -1.0, math.inf])
    def test_nonpositive_mu_rejected(self, mu):
        with pytest.raises(InvalidInputError):
            verify_shattering(takacs_arrangement(2), takacs_shatter, mu=mu)

    def test_desk_scale_guard(self):
        arr = takacs_arrangement(11)  # 24 points
        with pytest.raises(InvalidInputError):
            verify_shattering(arr, takacs_shatter)

    def test_min_margin_recorded(self):
        cert = verify_shattering(takacs_arrangement(2), takacs_shatter)
        assert cert.verified
        margins = [
            float(evaluate_margins(w, cert.arrangement.points)[1].min())
            for _, w in witness_rows(cert)
        ]
        assert cert.min_margin == pytest.approx(min(margins))


class TestCertificateFiles:
    def test_nonpositive_mu_rejected_on_load(self):
        doc = certificate_to_dict(verify_shattering(takacs_arrangement(2), takacs_shatter), "takacs_shatter")
        certificate_from_dict(doc)
        doc["mu"] = 0.0
        with pytest.raises(CertificateError):
            certificate_from_dict(doc)

    def test_infinite_mu_rejected_on_load(self):
        doc = certificate_to_dict(verify_shattering(takacs_arrangement(2), takacs_shatter), "takacs_shatter")
        doc["mu"] = math.inf
        with pytest.raises(CertificateError, match="finite"):
            certificate_from_dict(doc)

    @pytest.mark.parametrize("kwargs", [{"radius": True}, {"mu": True}], ids=["radius", "mu"])
    def test_bool_radius_or_mu_refused(self, kwargs):
        # both were accepted and written as JSON true, which the loader refuses
        with pytest.raises(InvalidInputError):
            verify_shattering(takacs_arrangement(2, kwargs.get("radius", 1.0)), takacs_shatter,
                              mu=kwargs.get("mu", 1e-6))

    @pytest.mark.parametrize("build, param, generator", [(takacs_arrangement, 2, takacs_shatter),
                                                         (gunn_arrangement, 4, gunn_shatter)],
                             ids=["takacs", "gunn"])
    def test_numpy_scalar_radius_and_mu_round_trip(self, build, param, generator):
        cert = verify_shattering(build(param, np.float32(1.5)), generator, mu=np.float32(1e-6))
        assert cert.verified and type(cert.mu) is float
        doc = json.loads(certificate_json(cert, generator.__name__))
        assert doc["radius"] == 1.5 and doc["mu"] == float(np.float32(1e-6))
        assert reverify_certificate(certificate_from_dict(doc))[0]

    def test_non_object_document_rejected(self):
        with pytest.raises(CertificateError, match="JSON object"):
            certificate_from_dict([])

    def test_reverify_fails_a_passing_certificate_recorded_as_not_verified(self):
        cert = verify_shattering(takacs_arrangement(2), takacs_shatter)
        assert reverify_certificate(cert)[0]
        cert.verified = False
        ok, message = reverify_certificate(cert)
        assert not ok
        assert message.startswith("recorded verified=False but re-check says True: all 64 labelings pass")

    def test_reverify_reports_first_defect_in_bitmask_order(self):
        doc = certificate_to_dict(verify_shattering(takacs_arrangement(2), takacs_shatter), "takacs_shatter")
        del doc["witnesses"]["0x2a"]
        doc["witnesses"]["0x5"]["labels"] = [-label for label in doc["witnesses"]["0x5"]["labels"]]
        ok, message = reverify_certificate(certificate_from_dict(doc))
        assert not ok
        assert message.startswith("labelling 0x5:")
        del doc["witnesses"]["0x3"]
        assert reverify_certificate(certificate_from_dict(doc)) == (False, "labelling 0x3: missing from certificate")

    @pytest.mark.parametrize(
        "arrangement, generator",
        [(takacs_arrangement(2, radius=2.0), takacs_shatter), (gunn_arrangement(4, radius=2.0), gunn_shatter)],
        ids=["takacs", "gunn"],
    )
    def test_points_must_be_the_named_layout(self, arrangement, generator):
        doc = certificate_to_dict(verify_shattering(arrangement, generator), generator.__name__)
        doc["points"][1][0] += 1e-12   # within 1e-12 * radius, as an ulp of cos or sin is
        certificate_from_dict(doc)
        doc["points"][1][0] += 1e-3
        with pytest.raises(CertificateError, match=f"points are not the {arrangement.kind} arrangement"):
            certificate_from_dict(doc)

    def test_huge_param_refused_by_its_point_count(self):
        # the count is checked before the layout of 2e9 + 1 vertices would be built
        doc = certificate_to_dict(verify_shattering(takacs_arrangement(2), takacs_shatter), "takacs_shatter")
        doc["param"] = 1000000000
        with pytest.raises(CertificateError, match="param 1000000000 has 2000000002 points, not 6"):
            certificate_from_dict(doc)

    def test_takacs_layout_below_two_facets_refused(self):
        # a takacs N=2 file edited by hand into the N=1 layout: a triangle plus its centre
        doc = certificate_to_dict(verify_shattering(takacs_arrangement(2), takacs_shatter), "takacs_shatter")
        doc["param"] = 1
        doc["points"] = np.vstack([regular_polygon_vertices(3, 1.0), np.zeros((1, 2))]).tolist()
        doc["special"] = {"center_index": 3}
        with pytest.raises(CertificateError, match="takacs arrangement needs param >= 2, got 1"):
            certificate_from_dict(doc)

    def test_reverify_through_json_without_the_cli(self):
        script = textwrap.dedent(
            """
            import json, sys
            from vcnn.constructions import takacs_arrangement, takacs_shatter
            from vcnn.verification import (
                certificate_from_dict, certificate_to_dict, reverify_certificate, verify_shattering,
            )
            cert = verify_shattering(takacs_arrangement(2), takacs_shatter)
            text = json.dumps(certificate_to_dict(cert, "takacs_shatter"))
            ok, message = reverify_certificate(certificate_from_dict(json.loads(text)))
            assert ok, message
            assert "vcnn.cli" not in sys.modules
            print(message)
            """
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(vcnn.__file__)))
        result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert "all 64 labelings pass" in result.stdout


def _dumped(cert, generator, meta=None) -> str:
    return json.dumps(certificate_to_dict(cert, generator, meta), sort_keys=True, indent=2) + "\n"


def _no_witness(_arrangement, _labeling, _mu):
    raise ConstructionInfeasibleError("no witness for this labelling")


def _hand_built_certificate() -> ShatterCertificate:
    """Witnesses of 1, 2 and 3 prototypes whose coordinates stress float text.

    Keys sort as strings, not as numbers: 0x10 before 0x2, and among the
    witnesses of two prototypes 0x1b before 0x7.
    """
    points = np.array([[0.0, 1.0], [-0.0, 2.0], [0.5, 0.25], [1.0, 1.0], [-1.0, 0.5]])
    arr = Arrangement(kind="search", points=points, radius=1.0, param=3)
    witnesses = {
        1: (np.array([0x10]), np.array([[[-1e22, -0.0]]]), np.array([[-1]])),
        2: (np.array([0x0, 0x7, 0x1b]),
            np.array([[[0.1, -0.0], [-0.0, 0.1]], [[-0.0, 0.0], [0.1, 1e-05]], [[2.5, -1e-300], [0.0, 3.0]]]),
            np.array([[1, 1], [-1, 1], [1, -1]])),
        3: (np.array([0x2]), np.array([[[0.0, -0.0], [5e-324, 1e16], [1e-05, 0.1]]]), np.array([[1, -1, 1]])),
    }
    return ShatterCertificate(arrangement=arr, mu=1e-6, witnesses=witnesses,
                              min_margin=0.125, verified=False, first_failure=0x3,
                              failure_reason="hand-built")


class TestCertificateJson:
    """``certificate_json`` writes exactly the bytes of ``json.dumps`` of ``certificate_to_dict``.

    Mutant note: keying the coordinate text by float value instead of by
    bit pattern (``np.unique`` on the floats) writes ``-0.0`` as ``0.0``
    or the reverse, and fails ``test_hand_built_float_text``.
    """

    @pytest.mark.parametrize(
        "arrangement, generator",
        [
            (gunn_arrangement(4), gunn_shatter),
            (gunn_arrangement(5), gunn_shatter),
            (takacs_arrangement(2), takacs_shatter),
            (takacs_arrangement(3), takacs_shatter),
        ],
        ids=["gunn4", "gunn5", "takacs2", "takacs3"],
    )
    def test_constructions(self, arrangement, generator):
        cert = verify_shattering(arrangement, generator)
        assert cert.verified
        assert certificate_json(cert, generator.__name__) == _dumped(cert, generator.__name__)

    def test_search_in_three_dimensions(self):
        cert = search_lower_bound(SearchConfig(d=3, m=2, n=4, trials=8, point_sets=2, steps=40))
        assert cert is not None and cert.arrangement.points.shape[1] == 3
        assert certificate_json(cert, "search_lower_bound") == _dumped(cert, "search_lower_bound")

    def test_failure_at_the_first_labelling_has_no_witnesses(self):
        cert = verify_shattering(takacs_arrangement(2), _no_witness)
        assert cert.first_failure == 0 and not cert.witnesses
        text = certificate_json(cert, "none")
        assert text == _dumped(cert, "none")
        assert json.loads(text)["min_margin"] is None

    def test_with_meta(self):
        cert = verify_shattering(takacs_arrangement(2), takacs_shatter)
        meta = {"created": "2024-01-01T00:00:00+00:00", "tool": "vcnn 0.1.0", "seed": 3}
        assert certificate_json(cert, "takacs_shatter", meta) == _dumped(cert, "takacs_shatter", meta)

    def test_hand_built_float_text(self):
        cert = _hand_built_certificate()
        text = certificate_json(cert, "hand")
        assert text == _dumped(cert, "hand")
        assert text.index('"0x10"') < text.index('"0x1b"') < text.index('"0x2"') < text.index('"0x7"')
        assert "-0.0" in text and "5e-324" in text and "-1e+22" in text


def _per_witness(doc: dict) -> dict:
    """The witnesses of ``doc`` built one ``LabeledPrototypeSet`` at a time."""
    return {
        int(key, 16): LabeledPrototypeSet(np.asarray(val["prototypes"], dtype=np.float64),
                                          np.asarray(val["labels"], dtype=np.int64))
        for key, val in doc["witnesses"].items()
    }


def _late_key(doc: dict, m: int) -> str:
    """The last key, in document order, of a witness with m prototypes: never the first of its group."""
    keys = [key for key, val in doc["witnesses"].items() if len(val["prototypes"]) == m]
    assert len(keys) > 1
    return keys[-1]


def _same_stacks(got: dict, want: dict) -> None:
    """``got`` and ``want`` hold the same witness stacks, row for row, bit for bit and dtype for dtype."""
    assert got.keys() == want.keys()
    for m, stacks in got.items():
        for got_stack, want_stack in zip(stacks, want[m], strict=True):
            assert got_stack.dtype == want_stack.dtype and got_stack.shape == want_stack.shape
            assert got_stack.tobytes() == want_stack.tobytes()


class TestWitnessLoader:
    @pytest.fixture(scope="class")
    def gunn4_cert(self):
        return verify_shattering(gunn_arrangement(4), gunn_shatter)

    @pytest.fixture(scope="class")
    def gunn4_doc(self, gunn4_cert):
        return json.loads(certificate_json(gunn4_cert, "gunn_shatter"))

    def test_stacked_load_equals_per_witness_load(self, gunn4_cert, gunn4_doc):
        loaded = certificate_from_dict(gunn4_doc).witnesses
        want = _per_witness(gunn4_doc)
        assert set(loaded) == {1, 4}
        rows = {int(b): (p, l) for bits, protos, labels in loaded.values() for b, p, l in zip(bits, protos, labels)}
        assert rows.keys() == want.keys()
        for bits, w in want.items():
            protos, labels = rows[bits]
            assert protos.dtype == w.prototypes.dtype == np.float64
            assert labels.dtype == w.labels.dtype == np.int64
            assert protos.shape == w.prototypes.shape
            assert protos.tobytes() == w.prototypes.tobytes()
            assert labels.tobytes() == w.labels.tobytes()
        # a round trip gives back the written stacks row for row, in ascending bitmask order,
        # although the file lists its keys in text order
        for cert in (gunn4_cert, _hand_built_certificate()):
            _same_stacks(certificate_from_dict(json.loads(certificate_json(cert, "x"))).witnesses, cert.witnesses)
        for bits, _, _ in loaded.values():
            assert np.all(np.diff(bits) > 0)

    def test_witness_not_in_the_points_space_refused(self, gunn4_doc):
        doc = json.loads(json.dumps(gunn4_doc))
        for witness in doc["witnesses"].values():
            witness["prototypes"] = [row + [0.0] for row in witness["prototypes"]]
        with pytest.raises(CertificateError, match=r"in R\^3, not in R\^2"):
            certificate_from_dict(doc)
        doc = json.loads(json.dumps(gunn4_doc))
        late = doc["witnesses"][_late_key(doc, 4)]
        late["prototypes"][1] = late["prototypes"][1] + [0.0]   # one row of one witness
        with pytest.raises(CertificateError, match=r"in R\^3, not in R\^2"):
            certificate_from_dict(doc)

    @pytest.mark.parametrize(
        "defect",
        [
            lambda w: w["prototypes"][1].__setitem__(0, math.nan),
            lambda w: w["prototypes"][2].__setitem__(1, math.inf),
            lambda w: w["labels"].__setitem__(1, 0),
            lambda w: w["labels"].__setitem__(1, 1.5),
            lambda w: w["labels"].__setitem__(1, True),
            lambda w: w["prototypes"].__setitem__(2, list(w["prototypes"][0])),
            lambda w: w["prototypes"].__setitem__(
                2, [w["prototypes"][0][0] + 0.5 * DEFAULT_TOL, w["prototypes"][0][1]]),
            lambda w: w["labels"].pop(),
            lambda w: w.update(prototypes=[], labels=[]),
            lambda w: w["prototypes"][3].append(0.0),
            lambda w: w["labels"].__setitem__(0, [1]),
        ],
        ids=["nan", "inf", "label-zero", "label-float", "label-bool", "coincident",
             "within-tol", "labels-short", "empty", "ragged-row", "nested-label"],
    )
    def test_defect_in_a_later_witness_refused(self, gunn4_doc, defect):
        doc = json.loads(json.dumps(gunn4_doc))
        key = _late_key(doc, 4)
        defect(doc["witnesses"][key])
        with pytest.raises(CertificateError, match=f"^witness {key} "):
            certificate_from_dict(doc)


_BUDGET_CASES = [
    ({"trials": 2.5}, "trials must be an integer >= 1"),
    ({"steps": True}, "steps must be an integer >= 1"),
    ({"rng_seed": -1}, "rng_seed must be an integer >= 0"),
    ({"rng_seed": 1.0}, "rng_seed must be an integer >= 0"),
    ({"mu": True}, "mu must be finite and positive"),
]
_BUDGET_IDS = ["trials-fraction", "steps-true", "seed-negative", "seed-float", "mu-true"]


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            SearchConfig(d=0, m=1, n=1)
        with pytest.raises(InvalidInputError):
            SearchConfig(d=2, m=1, n=1, trials=0)
        with pytest.raises(InvalidInputError):
            SearchConfig(d=2, m=1, n=1, mu=0.0)
        with pytest.raises(InvalidInputError):
            SearchConfig(d=2, m=1, n=1, mu=math.inf)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"n": 3.5}, "n must be an integer >= 1"),
            ({"d": 2.5}, "d must be an integer >= 1"),
            ({"m": True}, "m must be an integer >= 1"),
            ({"point_sets": 1.5}, "point_sets must be an integer >= 1"),
            *_BUDGET_CASES,
        ],
        ids=["n-fraction", "d-fraction", "m-true", "point-sets-fraction", *_BUDGET_IDS],
    )
    def test_count_or_seed_that_is_not_an_integer_is_refused(self, kwargs, match):
        with pytest.raises(InvalidInputError, match=match):
            SearchConfig(**{"d": 2, "m": 2, "n": 3, **kwargs})

    @pytest.mark.parametrize("kwargs, match", _BUDGET_CASES, ids=_BUDGET_IDS)
    def test_budget_refuses_what_the_config_refuses(self, kwargs, match):
        with pytest.raises(InvalidInputError, match=match):
            SearchBudget(**kwargs)

    @pytest.mark.parametrize("cls, args", [(SearchConfig, (2, 3, 3)), (SearchBudget, (24,))],
                             ids=["config", "budget"])
    def test_positional_arguments_are_refused(self, cls, args):
        with pytest.raises(TypeError):
            cls(*args)

    def test_search_too_large_to_allocate_is_refused(self):
        for kwargs in ({"trials": 10**9}, {"m": 10**9}, {"d": 10**9}, {"n": 10**9}):
            with pytest.raises(InvalidInputError, match="over the limit"):
                SearchConfig(**{"d": 2, "m": 3, "n": 3, **kwargs})
        for m, budget in ((10**9, SearchConfig(d=2, m=3, n=3)), (10**9, SearchBudget()),
                          (3, SearchBudget(trials=10**9))):
            # a bare budget has no size to check; the count checks it with m and the points' shape
            with pytest.raises(InvalidInputError, match="over the limit"):
                shatter_coefficient_exhaustive(np.zeros((3, 2)), m, budget)

    def test_largest_roadmap_budget_is_accepted(self):
        SearchConfig(d=4, m=4, n=22, trials=400)

    def test_size_limit_is_the_largest_chunk(self):
        # up to _BATCH_ROWS trials a chunk holds _BATCH_ROWS rows, so m * n * d may reach 2^26 / 512
        assert verification._BATCH_ROWS == 512
        limit = 1 << 17
        verification._check_search_size(512, 1, limit, 1)
        SearchConfig(d=2, m=2, n=limit // 4, trials=1)
        for trials, n in ((1, limit + 1), (512, limit + 1), (513, limit)):
            with pytest.raises(InvalidInputError, match="over the limit"):
                verification._check_search_size(trials, 1, n, 1)
        # past _BATCH_ROWS trials, one labelling's restarts are the largest chunk
        SearchConfig(d=2, m=2, n=16, trials=1 << 20)
        with pytest.raises(InvalidInputError, match="over the limit"):
            SearchConfig(d=2, m=2, n=16, trials=(1 << 20) + 1)


class TestSearchLowerBound:
    def test_halfplane_case_shatters_three_points(self):
        cfg = SearchConfig(d=2, m=2, n=3, trials=16, point_sets=2, steps=80, rng_seed=0)
        cert = search_lower_bound(cfg)
        assert cert is not None and cert.verified and cert.arrangement.n == 3
        assert stored_bits(cert) == list(range(8))

    def test_reproducible_bit_for_bit(self):
        # the halfplane budget certifies n=3, so a witness and a margin are compared
        cfg = SearchConfig(d=2, m=2, n=3, trials=16, point_sets=2, steps=80, rng_seed=0)
        c1, c2 = search_lower_bound(cfg), search_lower_bound(cfg)
        assert c1 is not None and c2 is not None
        assert np.array_equal(c1.arrangement.points, c2.arrangement.points)
        assert c1.min_margin == c2.min_margin
        assert c1.witnesses.keys() == c2.witnesses.keys()
        for m, stacks in c1.witnesses.items():
            for got, want in zip(stacks, c2.witnesses[m], strict=True):
                assert np.array_equal(got, want)

    # one prototype realises only the constant labellings, so labelling 0x1 fails first
    _ONE_PROTOTYPE = SearchConfig(d=2, m=1, n=4, trials=4, point_sets=1, steps=10)

    def _chunks_searched(self, monkeypatch, tmp_path, sweep_parts, parts) -> list[list[int]]:
        """The labellings of every ``search_batch`` call of the one-prototype search in ``parts`` parts."""
        search_batch, log = kernels.search_batch, tmp_path / "searched.txt"

        def recording(points, targets, *rest):   # one appended line per call, from any process
            with open(log, "a") as fh:
                fh.write(" ".join(str(Labeling.from_array(target).bits) for target in targets) + "\n")
            return search_batch(points, targets, *rest)

        sweep_parts(parts)
        monkeypatch.setattr(verification, "_BATCH_ROWS", self._ONE_PROTOTYPE.trials)   # one labelling per chunk
        monkeypatch.setattr(kernels, "search_batch", recording)
        assert search_lower_bound(self._ONE_PROTOTYPE) is None
        assert multiprocessing.active_children() == []
        return [[int(bits) for bits in line.split()] for line in log.read_text().splitlines()]

    def test_sweep_searches_no_chunk_after_the_first_failure(self, monkeypatch, tmp_path, sweep_parts):
        # pinned to one part: at one labelling per chunk this sweep is large enough to fork
        assert self._chunks_searched(monkeypatch, tmp_path, sweep_parts, 1) == [[0x0], [0x1]]

    def test_forked_part_searches_at_most_one_chunk_past_the_first_failure(self, monkeypatch, tmp_path,
                                                                         sweep_parts):
        n = self._ONE_PROTOTYPE.n
        searched = self._chunks_searched(monkeypatch, tmp_path, sweep_parts, 2)
        assert [0x0] in searched and [0x1] in searched
        for part in range(2):
            chunks = [chunk for chunk in searched if _part_of(chunk[0], n, 2) == part]
            assert all(_part_of(bits, n, 2) == part for chunk in chunks for bits in chunk)
            assert sum(chunk[0] > 0x1 for chunk in chunks) <= 1

    def test_witnesses_reverify_without_generator(self):
        cfg = SearchConfig(d=2, m=2, n=3, trials=16, point_sets=2, steps=80, rng_seed=0)
        cert = search_lower_bound(cfg)
        for bits, witness in witness_rows(cert):
            got, margins = evaluate_margins(witness, cert.arrangement.points)
            assert np.all(got == Labeling(bits, 3).array)
            assert np.all(margins >= cert.mu)


class TestShatterCoefficient:
    def test_single_prototype_realises_only_constants(self, rng):
        pts = rng.uniform(-1, 1, size=(5, 2))
        cfg = SearchConfig(d=2, m=1, n=5, trials=8, steps=40, rng_seed=3)
        assert shatter_coefficient_exhaustive(pts, 1, cfg) == 2

    def test_collinear_points_with_two_prototypes(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        cfg = SearchConfig(d=2, m=2, n=3, trials=12, steps=60, rng_seed=1)
        # threshold patterns on a line: exactly 6 of the 8 labelings
        assert shatter_coefficient_exhaustive(pts, 2, cfg) == 6

    def test_count_never_exceeds_two_to_the_n(self, rng):
        pts = rng.uniform(-1, 1, size=(4, 2))
        cfg = SearchConfig(d=2, m=3, n=4, trials=8, steps=40, rng_seed=5)
        assert shatter_coefficient_exhaustive(pts, 3, cfg) <= 16

    @pytest.mark.parametrize("budget", [SearchConfig(d=2, m=3, n=3, trials=4, steps=24, rng_seed=1),
                                        SearchBudget(trials=4, steps=24, rng_seed=1)], ids=["config", "budget"])
    def test_counts_of_the_c8_draw_are_frozen(self, budget):
        # one point set per (n, m, d), n 3..8, m 3..4, d 2..3, drawn as test c8
        # draws them; the counts were recorded with the per-restart search
        draw = np.random.default_rng(99)
        counts = [
            shatter_coefficient_exhaustive(draw.uniform(-1.0, 1.0, size=(n, d)), m, budget)
            for n in range(3, 9) for m in (3, 4) for d in (2, 3)
        ]
        assert counts == [8, 8, 8, 8, 15, 16, 15, 16, 29, 31, 31, 32,
                          43, 62, 53, 64, 74, 113, 111, 125, 116, 178, 155, 243]

    def test_config_counts_with_the_points_own_size(self):
        # the call shape of the benchmark's count child: a config's d, m and n are not read
        pts = np.random.default_rng(7).uniform(-1.0, 1.0, size=(8, 3))
        cfg = SearchConfig(d=2, m=3, n=3, trials=4, steps=24, rng_seed=1)
        count = shatter_coefficient_exhaustive(pts, 4, cfg)
        assert count == shatter_coefficient_exhaustive(pts, 4, SearchBudget(trials=4, steps=24, rng_seed=1))
        assert 16 < count <= 256

    def test_counts_do_not_depend_on_batch_size(self, monkeypatch):
        pts = np.random.default_rng(99).uniform(-1.0, 1.0, size=(6, 2))
        cfg = SearchConfig(d=2, m=3, n=6, trials=4, steps=24, rng_seed=1)
        counts = []
        for rows in (4, 28, 10_000):   # one labelling, seven, and all 64 per batch
            monkeypatch.setattr(verification, "_BATCH_ROWS", rows)
            counts.append(shatter_coefficient_exhaustive(pts, 3, cfg))
        assert counts[0] == counts[1] == counts[2]

    @pytest.mark.parametrize(
        "points, m",
        [
            ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], 0),
            ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], -1),
            ([0.0, 1.0, 2.0], 2),                        # 1-d: no dimension axis
            (np.zeros((3, 2, 1)), 2),
            (np.zeros((3, 0)), 2),
            ([[0.0, 0.0], [1.0, math.nan], [0.0, 1.0]], 2),
        ],
        ids=["m0", "m-1", "1d-points", "3d-array", "zero-dim", "nan"],
    )
    def test_bad_input_refused(self, points, m):
        cfg = SearchConfig(d=2, m=2, n=3, trials=1, steps=1)
        with pytest.raises(InvalidInputError):
            shatter_coefficient_exhaustive(points, m, cfg)

    def test_desk_scale_guard(self, rng):
        pts = rng.uniform(-1, 1, size=(17, 2))
        cfg = SearchConfig(d=2, m=2, n=17, trials=1, steps=1)
        with pytest.raises(InvalidInputError):
            shatter_coefficient_exhaustive(pts, 2, cfg)


def _failing_at(failing: set[int], generator=takacs_shatter, error=ConstructionInfeasibleError):
    """``generator``, raising ``error`` at the labellings in ``failing``."""
    def wrapped(arrangement, labeling, mu):
        if labeling.bits in failing:
            raise error(f"no witness for {labeling.bits:#x}")
        return generator(arrangement, labeling, mu)
    return wrapped


def _producer(arrangement, generator, read=None):
    """A producer of ``generator``'s witnesses, recording the bitmasks it reads in ``read``."""
    def produce(bitmasks):
        for bits in bitmasks:
            if read is not None:
                read.append(bits)
            labeling = Labeling(bits, arrangement.n)
            try:
                yield labeling, generator(arrangement, labeling, 1e-6)
            except ConstructionInfeasibleError as exc:
                yield labeling, str(exc)
    return produce


def _part_of(bits: int, n: int, parts: int) -> int:
    return min(bits, bits ^ ((1 << n) - 1)) % parts


def _part_reply(arrangement, produce, part: int, parts: int, stop, keep: bool):
    """The ``_collected`` reply that a forked worker returns for part ``part``, run in this process."""
    verification._start_worker(arrangement, 1e-6, produce, parts, stop,
                               functools.partial(verification._collected, keep=keep))
    try:
        return verification._part(part)
    finally:
        verification._worker_sweep = None


class TestSweepParts:
    """One part (in this process) and two forked parts make the same certificate."""

    def _swept(self, sweep_parts, parts, *args, **kwargs):
        sweep_parts(parts)
        cert = verify_shattering(*args, **kwargs)
        assert multiprocessing.active_children() == []
        return cert

    def _same(self, got, want):
        assert (got.verified, got.first_failure, got.failure_reason) == (
            want.verified, want.first_failure, want.failure_reason)
        assert got.min_margin == want.min_margin
        _same_stacks(got.witnesses, want.witnesses)   # bitmask order
        for stacks in got.witnesses.values():
            assert all(stack.flags.writeable for stack in stacks)

    @pytest.mark.parametrize("failing, parts_failing", [({0xA53}, 1), ({0xA53, 0xC00}, 2), ({0xA53, 0xC01}, 1)],
                             ids=["one", "one-per-part", "two-in-one-part"])
    def test_failure_in_the_upper_half(self, sweep_parts, failing, parts_failing):
        n = takacs_arrangement(5).n
        assert len({_part_of(bits, n, 2) for bits in failing}) == parts_failing
        one = self._swept(sweep_parts, 1, takacs_arrangement(5), _failing_at(failing))
        two = self._swept(sweep_parts, 2, takacs_arrangement(5), _failing_at(failing))
        assert one.first_failure == min(failing) and stored_bits(one) == list(range(min(failing)))
        self._same(two, one)

    def test_full_sweeps_agree(self, sweep_parts):
        one = self._swept(sweep_parts, 1, gunn_arrangement(5), gunn_shatter)
        two = self._swept(sweep_parts, 2, gunn_arrangement(5), gunn_shatter)
        assert one.verified
        self._same(two, one)
        assert reverify_certificate(two) == reverify_certificate(one)

    def test_three_parts_agree(self, sweep_parts):
        one = self._swept(sweep_parts, 1, takacs_arrangement(4), _failing_at({0x2F5}))
        self._same(self._swept(sweep_parts, 3, takacs_arrangement(4), _failing_at({0x2F5})), one)

    def test_worker_exception_is_raised_with_its_type_and_text(self, sweep_parts):
        sweep_parts(2)
        with pytest.raises(ValueError, match="^no witness for 0xa53$"):
            verify_shattering(takacs_arrangement(5), _failing_at({0xA53}, error=ValueError))
        assert multiprocessing.active_children() == []

    def test_worker_that_dies_is_an_error_and_leaves_no_process(self, sweep_parts):
        def exits(arrangement, labeling, mu):
            if labeling.bits == 0xA53:
                os._exit(3)
            return takacs_shatter(arrangement, labeling, mu)

        sweep_parts(2)
        with pytest.raises(RuntimeError):
            verify_shattering(takacs_arrangement(5), exits)
        assert multiprocessing.active_children() == []

    def test_an_exception_stops_the_other_part(self, sweep_parts):
        # part 1 raises at its first labelling, 0x1; part 0 is slowed so that it cannot finish first
        arr = takacs_arrangement(5)
        read = multiprocessing.Value("q", 0)   # labellings part 0 was asked for

        def raising(arrangement, labeling, mu):
            if _part_of(labeling.bits, arrangement.n, 2) == 1:
                raise ValueError("first labelling of part 1")
            with read.get_lock():
                read.value += 1
            time.sleep(1e-3)
            return takacs_shatter(arrangement, labeling, mu)

        sweep_parts(2)
        with pytest.raises(ValueError, match="^first labelling of part 1$"):
            verify_shattering(arr, raising)
        assert read.value < (1 << arr.n) // 4   # under half of part 0's 2^(n-1) labellings

    def test_search_agrees(self, sweep_parts):
        cfg = SearchConfig(d=2, m=3, n=6, rng_seed=0)
        sweep_parts(1)
        want = search_lower_bound(cfg)
        sweep_parts(2)
        got = search_lower_bound(cfg)
        assert got.arrangement.n == want.arrangement.n == 6
        self._same(got, want)

    def test_counts_of_the_c8_draw_agree_in_one_two_and_three_parts(self, sweep_parts):
        budget = SearchBudget(trials=4, steps=24, rng_seed=1)
        counts = []
        for parts in (1, 2, 3):
            sweep_parts(parts)
            draw = np.random.default_rng(99)   # the draw of test_counts_of_the_c8_draw_are_frozen
            counts.append([shatter_coefficient_exhaustive(draw.uniform(-1.0, 1.0, size=(n, d)), m, budget)
                           for n in range(3, 9) for m in (3, 4) for d in (2, 3)])
            assert multiprocessing.active_children() == []
        assert counts[0] == counts[1] == counts[2]

    def _count_calling(self, monkeypatch, sweep_parts, action):
        """A forked count of 5 points whose search runs ``action(bitmasks)`` on every chunk first."""
        search_batch = kernels.search_batch

        def acting(points, targets, *rest):
            action([Labeling.from_array(target).bits for target in targets])
            return search_batch(points, targets, *rest)

        sweep_parts(2)
        monkeypatch.setattr(kernels, "search_batch", acting)
        points = np.random.default_rng(3).uniform(-1.0, 1.0, size=(5, 2))
        return shatter_coefficient_exhaustive(points, 3, SearchBudget(trials=4, steps=10))

    def test_count_worker_exception_is_raised_with_its_type_and_text(self, monkeypatch, sweep_parts):
        def raising(bitmasks):
            if 0x5 in bitmasks:
                raise ValueError("searched 0x5")

        with pytest.raises(ValueError, match="^searched 0x5$"):
            self._count_calling(monkeypatch, sweep_parts, raising)
        assert multiprocessing.active_children() == []

    def test_count_worker_that_dies_is_an_error_and_leaves_no_process(self, monkeypatch, sweep_parts):
        parent = os.getpid()

        def exits(bitmasks):
            if 0x5 in bitmasks and os.getpid() != parent:
                os._exit(3)

        with pytest.raises(BrokenProcessPool):
            self._count_calling(monkeypatch, sweep_parts, exits)
        assert multiprocessing.active_children() == []

    def test_parts_hold_complementary_pairs(self):
        arr = takacs_arrangement(4)
        n, full = arr.n, (1 << arr.n) - 1
        swept = []
        for part in range(3):
            stop = multiprocessing.Value("q", 1 << n)
            bits, worsts, failure, stacks = _part_reply(arr, _producer(arr, takacs_shatter), part, 3, stop, True)
            bits = bits.tolist()
            assert failure is None and bits == sorted(bits) and len(worsts) == len(bits)
            assert {full ^ b for b in bits} == set(bits)   # both members of every pair
            assert sorted(int(b) for group in stacks.values() for b in group[0]) == bits
            swept += bits
        assert sorted(swept) == list(range(1 << n))

    def test_part_reads_nothing_above_the_lowest_failure(self):
        arr = takacs_arrangement(4)
        read = []
        assert _part_of(0x2F5, arr.n, 2) == 0
        stop = multiprocessing.Value("q", 0x2F5)   # part 0 failed there
        bits, _, failure, _ = _part_reply(arr, _producer(arr, takacs_shatter, read), 1, 2, stop, False)
        assert failure is None and max(read) < 0x2F5 and bits.tolist() == read
        stop.value = 1 << arr.n
        bits, _, failure, stacks = _part_reply(arr, _producer(arr, _failing_at({0x2F5}), read := []), 0, 2, stop,
                                               False)
        assert failure == (0x2F5, "no witness for 0x2f5") and read[-1] == 0x2F5 and stop.value == 0x2F5
        assert stacks == {}

    def test_merge_ends_at_the_lowest_failure_of_any_part(self):
        # part 0 swept past 5 before part 1 failed there; its later witnesses and margins are dropped
        def stacks(bits, m):   # witness b of m prototypes has every coordinate b
            bits = np.array(bits, dtype=np.int64)
            return bits, np.ones((len(bits), m, 2)) * bits[:, None, None], np.ones((len(bits), m), dtype=np.int64)

        replies = [
            (np.array([0, 2, 4, 6]), np.array([1.0, 0.5, 2.0, 0.125]), (8, "late"),
             {1: stacks([0, 4], 1), 2: stacks([2], 2), 3: stacks([6], 3)}),
            (np.array([1, 3]), np.array([0.25, 4.0]), (5, "early"), {1: stacks([1, 3], 1)}),
        ]
        witnesses, min_margin, failure = verification._merged(replies)
        assert failure == (5, "early") and min_margin == 0.25
        _same_stacks(witnesses, {1: stacks([0, 1, 3, 4], 1), 2: stacks([2], 2)})
        _, min_margin, failure = verification._merged([(np.array([0, 1]), np.array([1.0, math.inf]), None, {})])
        assert failure is None and min_margin == 1.0

    def test_sweep_below_the_threshold_starts_no_process(self, monkeypatch):
        def no_fork():
            raise AssertionError("a sweep below the fork threshold forked")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "fork", no_fork)
        assert verification._parts(gunn_arrangement(5).n) == 1
        assert verification._parts(takacs_arrangement(5).n) == 2
        assert verify_shattering(gunn_arrangement(5), gunn_shatter).verified

    def test_every_sweep_forks_by_labellings_times_restarts(self, monkeypatch):
        # one rule: 2^n x restarts per labelling (1 outside a search) of 2^12 or more forks
        def no_fork():
            raise AssertionError("a sweep under 2^12 labellings x restarts forked")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert [verification._parts(n) for n in (11, 12)] == [1, 2]
        assert [verification._parts(8, trials) for trials in (4, 15, 16, 24)] == [1, 1, 2, 2]
        assert verification._parts(6, 24) == 1
        with monkeypatch.context() as unforked:
            unforked.setattr(os, "fork", no_fork)
            points = np.random.default_rng(3).uniform(-1.0, 1.0, size=(8, 2))
            assert 2 <= shatter_coefficient_exhaustive(points, 3, SearchBudget(trials=4, steps=10)) <= 256
            search_lower_bound(SearchConfig(d=2, m=3, n=6, trials=24, point_sets=1, steps=10))
        forked = []
        fork_parts = verification._forked

        def recorded(arrangement, *rest):
            forked.append(arrangement.n)
            return fork_parts(arrangement, *rest)

        monkeypatch.setattr(verification, "_forked", recorded)
        for n, trials in ((12, 1), (8, 16)):
            points = np.random.default_rng(3).uniform(-1.0, 1.0, size=(n, 2))
            assert 2 <= shatter_coefficient_exhaustive(points, 3, SearchBudget(trials=trials, steps=1)) <= 1 << n
        assert forked == [12, 8] and multiprocessing.active_children() == []
