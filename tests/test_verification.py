import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import vcnn
from vcnn import verification
from vcnn.classifier import LabeledPrototypeSet, Labeling, evaluate_margins
from vcnn.constructions import (
    Arrangement,
    gunn_arrangement,
    gunn_shatter,
    takacs_arrangement,
    takacs_shatter,
)
from vcnn.errors import CertificateError, ConstructionInfeasibleError, InvalidInputError
from vcnn.geometry import DEFAULT_TOL
from vcnn.verification import (
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
            for w in cert.witnesses.values()
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
        cert = verify_shattering(takacs_arrangement(2), takacs_shatter)
        del cert.witnesses[0x2a]
        cert.witnesses[0x05] = LabeledPrototypeSet(cert.witnesses[0x05].prototypes, -cert.witnesses[0x05].labels)
        ok, message = reverify_certificate(cert)
        assert not ok
        assert message.startswith("labelling 0x5:")
        del cert.witnesses[0x03]
        assert reverify_certificate(cert) == (False, "labelling 0x3: missing from certificate")

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

    Keys 0x10 and 0x2 sort as strings, not as numbers.
    """
    points = np.array([[0.0, 1.0], [-0.0, 2.0], [0.5, 0.25], [1.0, 1.0], [-1.0, 0.5]])
    arr = Arrangement(kind="search", points=points, radius=1.0, param=3)
    witnesses = {
        0x2: LabeledPrototypeSet(np.array([[0.0, -0.0], [5e-324, 1e16], [1e-05, 0.1]]),
                                 np.array([1, -1, 1])),
        0x10: LabeledPrototypeSet(np.array([[-1e22, -0.0]]), np.array([-1])),
        0x7: LabeledPrototypeSet(np.array([[-0.0, 0.0], [0.1, 1e-05]]), np.array([-1, 1])),
        0x0: LabeledPrototypeSet(np.array([[0.1, -0.0], [-0.0, 0.1]]), np.array([1, 1])),
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
        _, cert = search_lower_bound(SearchConfig(d=3, m=2, n=4, trials=8, point_sets=2, steps=40))
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
        assert text.index('"0x10"') < text.index('"0x2"') < text.index('"0x7"')
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


class TestWitnessLoader:
    @pytest.fixture(scope="class")
    def gunn4_doc(self):
        cert = verify_shattering(gunn_arrangement(4), gunn_shatter)
        return json.loads(certificate_json(cert, "gunn_shatter"))

    def test_stacked_load_equals_per_witness_load(self, gunn4_doc):
        loaded = certificate_from_dict(gunn4_doc).witnesses
        want = _per_witness(gunn4_doc)
        assert list(loaded) == list(want)
        assert {w.m for w in loaded.values()} == {1, 4}
        for bits, w in want.items():
            got = loaded[bits]
            assert got.prototypes.dtype == w.prototypes.dtype == np.float64
            assert got.labels.dtype == w.labels.dtype == np.int64
            assert got.prototypes.shape == w.prototypes.shape
            assert got.prototypes.tobytes() == w.prototypes.tobytes()
            assert got.labels.tobytes() == w.labels.tobytes()

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
        defect(doc["witnesses"][_late_key(doc, 4)])
        with pytest.raises(CertificateError):
            certificate_from_dict(doc)


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


class TestSearchLowerBound:
    def test_halfplane_case_shatters_three_points(self):
        cfg = SearchConfig(d=2, m=2, n=3, trials=16, point_sets=2, steps=80, rng_seed=0)
        n_found, cert = search_lower_bound(cfg)
        assert n_found == 3
        assert cert is not None and cert.verified
        assert len(cert.witnesses) == 8

    def test_reproducible_bit_for_bit(self):
        cfg = SearchConfig(d=2, m=2, n=3, trials=8, point_sets=1, steps=40, rng_seed=7)
        r1 = search_lower_bound(cfg)
        r2 = search_lower_bound(cfg)
        assert r1[0] == r2[0]
        if r1[1] is not None:
            assert r1[1].min_margin == r2[1].min_margin
            for bits in r1[1].witnesses:
                assert np.array_equal(
                    r1[1].witnesses[bits].prototypes, r2[1].witnesses[bits].prototypes
                )

    def test_witnesses_reverify_without_generator(self):
        cfg = SearchConfig(d=2, m=2, n=3, trials=16, point_sets=2, steps=80, rng_seed=0)
        _, cert = search_lower_bound(cfg)
        for bits, witness in cert.witnesses.items():
            got, margins = evaluate_margins(witness, cert.arrangement.points)
            assert np.all(got == Labeling(bits, 3).to_array())
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

    def test_counts_of_the_c8_draw_are_frozen(self):
        # one point set per (n, m, d), n 3..8, m 3..4, d 2..3, drawn as test c8
        # draws them; the counts were recorded with the per-restart search
        draw = np.random.default_rng(99)
        cfg = SearchConfig(d=2, m=3, n=3, trials=4, steps=24, rng_seed=1)
        counts = [
            shatter_coefficient_exhaustive(draw.uniform(-1.0, 1.0, size=(n, d)), m, cfg)
            for n in range(3, 9) for m in (3, 4) for d in (2, 3)
        ]
        assert counts == [8, 8, 8, 8, 15, 16, 15, 16, 29, 31, 31, 32,
                          43, 62, 53, 64, 74, 113, 111, 125, 116, 178, 155, 243]

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
