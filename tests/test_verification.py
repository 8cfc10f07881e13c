import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import vcnn
from vcnn.classifier import LabeledPrototypeSet, Labeling, evaluate_margins
from vcnn.constructions import gunn_arrangement, gunn_shatter, takacs_arrangement, takacs_shatter
from vcnn.errors import CertificateError, InvalidInputError
from vcnn.verification import (
    SearchConfig,
    certificate_from_dict,
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

    def test_desk_scale_guard(self, rng):
        pts = rng.uniform(-1, 1, size=(17, 2))
        cfg = SearchConfig(d=2, m=2, n=17, trials=1, steps=1)
        with pytest.raises(InvalidInputError):
            shatter_coefficient_exhaustive(pts, 2, cfg)
