import dataclasses
import hashlib
import json
import math
import multiprocessing

import numpy as np
import pytest

from vcnn import cli, constructions, verification
from vcnn.bounds import BoundsReport
from vcnn.classifier import evaluate_margins
from vcnn.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION, main
from vcnn.errors import ConstructionInfeasibleError, NumericalError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundsCommand:
    def test_table_has_expected_rows(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--d", "2", "--m", "3..6")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 5
        row = lines[1].split()
        assert row[:3] == ["2", "3", "6"]

    def test_planar_and_spatial_rows(self, capsys):
        _, out, _ = run_cli(capsys, "bounds", "--d", "2..3", "--m", "3..4", "--format", "csv")
        rows = {tuple(line.split(",")[:2]): line.split(",") for line in out.strip().splitlines()[1:]}
        assert rows[("2", "4")][2] == "9"
        assert rows[("3", "3")][2] == "8"
        assert rows[("3", "3")][3] == "12.0"

    def test_byte_identical_runs(self, capsys):
        _, out1, _ = run_cli(capsys, "bounds", "--d", "2..4", "--m", "3..9", "--format", "csv")
        _, out2, _ = run_cli(capsys, "bounds", "--d", "2..4", "--m", "3..9", "--format", "csv")
        assert out1 == out2

    def test_json_schema(self, capsys):
        _, out, _ = run_cli(capsys, "bounds", "--d", "2", "--m", "3", "--format", "json")
        doc = json.loads(out)
        assert doc["schema"] == "vcnn-bounds/1"
        assert doc["rows"][0]["lower"] == 6

    def test_columns_are_the_report_fields(self, capsys):
        names = [field.name for field in dataclasses.fields(BoundsReport)]
        _, table, _ = run_cli(capsys, "bounds", "--d", "2", "--m", "3..4")
        _, csv_text, _ = run_cli(capsys, "bounds", "--d", "2", "--m", "3..4", "--format", "csv")
        _, json_text, _ = run_cli(capsys, "bounds", "--d", "2", "--m", "3..4", "--format", "json")
        assert table.splitlines()[0].split() == names
        assert csv_text.splitlines()[0].split(",") == names
        # the JSON writer sorts every object's keys
        assert [list(row) for row in json.loads(json_text)["rows"]] == [sorted(names)] * 2

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("bounds", "--d", "2..10", "--m", "3..50", "--format", "csv"),
             "c6eecf9b13e5c2573e41befb863759ed342b69e3cb53051bc8ed8d15b58679bf"),
            (("bounds", "--d", "2..10", "--m", "3..50", "--format", "json"),
             "9e2c4755f08b9d0c6dd50caee10e7ef7a3a3eabe7c67139210a579b584c22bf4"),
            (("bounds", "--d", "2..4", "--m", "3..12"),
             "663ddb5ec6d408079dce09f8953d9ab4a4c4397a9be75345daf6c20188a44c79"),
            (("plot-data", "--d", "2,3", "--m", "3..50"),
             "c27f40965c7e022f8a17c0d889ca62e333ea037eb806956f98e738ebec70410f"),
        ],
        ids=["bounds-csv", "bounds-json", "bounds-table", "plot-data"],
    )
    def test_output_bytes_are_frozen(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_unsupported_range_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--d", "1", "--m", "3")
        assert code == EXIT_USAGE
        assert "error" in err

    @pytest.mark.parametrize("d, m", [("2", "999990..1000001"), ("2..65", "3..4"), ("64..65", "3")],
                             ids=["m-end", "d-end", "d-range"])
    def test_range_off_the_grid_is_refused_before_any_row(self, capsys, monkeypatch, d, m):
        calls = []
        monkeypatch.setattr(cli, "compute_bounds_range", lambda *args: calls.append(args))
        code, out, err = run_cli(capsys, "bounds", "--d", d, "--m", m)
        assert (code, out, calls) == (EXIT_USAGE, "", [])
        assert err.startswith("error:") and "outside supported range" in err


class TestWitnessAndVerify:
    def test_takacs_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "takacs2.json"
        code, _, _ = run_cli(capsys, "witness", "takacs", "--n", "2", "--no-meta", "--out", str(path))
        assert code == EXIT_OK
        doc = json.loads(path.read_text())
        assert doc["schema"] == "vcnn-certificate/1"
        assert doc["kind"] == "takacs"
        assert doc["verified"] is True
        assert len(doc["witnesses"]) == 64
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == EXIT_OK
        assert "64 labelings pass" in out

    def test_gunn_witness_counts(self, capsys, tmp_path):
        path = tmp_path / "gunn4.json"
        code, _, _ = run_cli(capsys, "witness", "gunn", "--m", "4", "--no-meta", "--out", str(path))
        assert code == EXIT_OK
        doc = json.loads(path.read_text())
        assert len(doc["witnesses"]) == 512
        assert doc["verified"] is True
        assert all(len(w["labels"]) <= 4 for w in doc["witnesses"].values())
        code, _, _ = run_cli(capsys, "verify", str(path))
        assert code == EXIT_OK

    def test_witness_bytes_reproducible(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "witness", "takacs", "--n", "2", "--no-meta", "--out", str(p1))
        run_cli(capsys, "witness", "takacs", "--n", "2", "--no-meta", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_flipped_label_detected(self, capsys, tmp_path):
        path = tmp_path / "takacs2.json"
        run_cli(capsys, "witness", "takacs", "--n", "2", "--no-meta", "--out", str(path))
        doc = json.loads(path.read_text())
        doc["witnesses"]["0x5"]["labels"] = [-l for l in doc["witnesses"]["0x5"]["labels"]]
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == EXIT_VERIFICATION
        assert "0x5" in out

    def test_raised_mu_fails_margin_check(self, capsys, tmp_path):
        path = tmp_path / "takacs2.json"
        run_cli(capsys, "witness", "takacs", "--n", "2", "--no-meta", "--out", str(path))
        doc = json.loads(path.read_text())
        doc["mu"] = 0.5
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == EXIT_VERIFICATION
        assert "margin" in out

    def test_missing_witness_detected(self, capsys, tmp_path):
        path = tmp_path / "takacs2.json"
        run_cli(capsys, "witness", "takacs", "--n", "2", "--no-meta", "--out", str(path))
        doc = json.loads(path.read_text())
        del doc["witnesses"]["0x2a"]
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == EXIT_VERIFICATION
        assert "0x2a" in out and "missing" in out

    def test_polytope_square_witness(self, capsys, tmp_path):
        path = tmp_path / "square.json"
        code, _, _ = run_cli(
            capsys, "witness", "polytope", "--square", "--seed", "0", "--no-meta", "--out", str(path)
        )
        assert code == EXIT_OK
        doc = json.loads(path.read_text())
        assert doc["schema"] == "vcnn-polytope-witness/1"
        assert len(doc["prototypes"]) == 5
        assert doc["check"]["disagreements"] == 0
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == EXIT_OK

    def test_polytope_requires_square_flag(self, capsys):
        code, _, _ = run_cli(capsys, "witness", "polytope")
        assert code == EXIT_USAGE

    def test_unverifiable_witness_refused_unless_forced(self, capsys, tmp_path):
        path = tmp_path / "impossible.json"
        # an absurd margin demand cannot be met by any construction
        code, _, err = run_cli(
            capsys, "witness", "takacs", "--n", "2", "--mu", "10.0",
            "--no-meta", "--out", str(path),
        )
        assert code == EXIT_VERIFICATION
        assert "labelling" in err
        assert not path.exists()
        code, _, _ = run_cli(
            capsys, "witness", "takacs", "--n", "2", "--mu", "10.0",
            "--no-meta", "--force", "--out", str(path),
        )
        assert code == EXIT_VERIFICATION
        doc = json.loads(path.read_text())
        assert doc["verified"] is False
        assert "first_failure" in doc

    def test_forced_file_with_one_sided_witnesses_reverifies(self, capsys, tmp_path):
        # only the constant labelling 0x0 is stored, so the recorded min margin is +inf
        path = tmp_path / "forced.json"
        code, _, _ = run_cli(capsys, "witness", "takacs", "--n", "2", "--mu", "0.5",
                             "--no-meta", "--force", "--out", str(path))
        assert code == EXIT_VERIFICATION
        doc = json.loads(path.read_text())
        assert list(doc["witnesses"]) == ["0x0"] and doc["min_margin"] == math.inf
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert (code, out) == (EXIT_VERIFICATION, "labelling 0x1: missing from certificate\n")

    def test_nonpositive_mu_refused(self, capsys, tmp_path):
        path = tmp_path / "gunn4.json"
        code, _, err = run_cli(
            capsys, "witness", "gunn", "--m", "4", "--mu", "-1", "--no-meta", "--out", str(path)
        )
        assert code == EXIT_USAGE
        assert "mu" in err
        assert not path.exists()

    def test_certificate_with_nonpositive_mu_refused(self, capsys, tmp_path):
        path = tmp_path / "takacs2.json"
        run_cli(capsys, "witness", "takacs", "--n", "2", "--no-meta", "--out", str(path))
        doc = json.loads(path.read_text())
        doc["mu"] = -1.0
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == EXIT_USAGE
        assert "mu" in err

    def test_witness_over_budget_detected(self, capsys, tmp_path):
        path = tmp_path / "gunn4.json"
        run_cli(capsys, "witness", "gunn", "--m", "4", "--no-meta", "--out", str(path))
        doc = json.loads(path.read_text())
        witness = doc["witnesses"]["0x1"]
        witness["prototypes"] += [[100.0 + j, 100.0] for j in range(20)]
        witness["labels"] += [witness["labels"][0]] * 20
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == EXIT_VERIFICATION
        assert "0x1" in out
        assert "24 prototypes, over the budget of 4" in out

    def test_param_inflated_to_cover_a_padded_witness_refused(self, capsys, tmp_path):
        path = tmp_path / "gunn4.json"
        run_cli(capsys, "witness", "gunn", "--m", "4", "--no-meta", "--out", str(path))
        doc = json.loads(path.read_text())
        witness = doc["witnesses"]["0x1"]
        witness["prototypes"] += [[100.0 + j, 100.0] for j in range(20)]
        witness["labels"] += [witness["labels"][0]] * 20
        doc["param"] = 24
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == EXIT_USAGE
        assert "gunn arrangement with param 24 has 49 points, not 9" in err

    def test_witness_key_outside_labellings_refused(self, capsys, tmp_path):
        path = tmp_path / "takacs2.json"
        run_cli(capsys, "witness", "takacs", "--n", "2", "--no-meta", "--out", str(path))
        doc = json.loads(path.read_text())
        doc["witnesses"]["0x400"] = doc["witnesses"]["-0x1"] = doc["witnesses"]["0x0"]
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == EXIT_USAGE
        assert "0x400" in err

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("gunn", "--m", "4"), "3363c8a211d4c59517c43434aaeed76293c4bd7f3b4bee4458fe201cd4c49a3a"),
            (("gunn", "--m", "5"), "a94a6ee9b8878ce15e1904f91bd2e10aaeedf6e5b7e028d7435cc0b395bb74d8"),
            (("takacs", "--n", "2"), "5d87b4080f5b7061515102538fd33455ce353f0f60ff588b534d1ba46885b3a6"),
            (("takacs", "--n", "3"), "6411c87dddad41775cf59b5108c65807887a547d7e6312fcfd8b4dbd856145b8"),
            (("polytope", "--square", "--seed", "0"),
             "a2ec3a5ed625adf1108b3b8a1005b5be790fb3270444a241617f00ad2f905d21"),
            (("gunn", "--m", "6"), "789e0a2889121ccd7f233a5770fbf2ea31a5f35bcdbdd2634559e80c17caa3fe"),
            (("takacs", "--n", "4"), "9ff6f0f42e2423d1a8129f4058a633ccd9ab6803931d069814c6713300dc5dbc"),
            (("takacs", "--n", "5"), "c438d2d9ccfdaeb3532ea84bd109b349aa98de3453b27a050de5d589a8665b28"),
        ],
        ids=["gunn4", "gunn5", "takacs2", "takacs3", "square", "gunn6", "takacs4", "takacs5"],
    )
    def test_witness_certificate_bytes_are_frozen(self, capsys, tmp_path, argv, digest):
        # the first five were recorded before the gunn strip and cut geometry moved into
        # per-arrangement tables, the last three before witnesses were built once per
        # complementary pair of labellings
        path = tmp_path / "witness.json"
        code, _, _ = run_cli(capsys, "witness", *argv, "--no-meta", "--out", str(path))
        assert code == EXIT_OK
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_unknown_schema_rejected(self, capsys, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"schema": "nonsense/9"}))
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == EXIT_USAGE
        assert "schema" in err


@pytest.mark.parametrize(
    "argv, want",
    [
        (("bounds", "--d", "2", "--m", "x"), None),
        (("witness", "takacs", "--n", "2", "--radius", "0"), None),
        (("search", "--d", "2", "--m", "3", "--n", "30"), None),
        (("witness", "gunn", "--m", "4", "--radius", "1e-4"), None),
        (("witness", "gunn", "--m", "4", "--mu", "1e-2"), None),
        (("witness", "gunn", "--m", "4", "--radius", "nan"), None),
        (("witness", "takacs", "--n", "2", "--radius", "inf"), None),
        (("witness", "takacs", "--n", "2", "--mu", "inf"), None),
        (("search", "--d", "2", "--m", "3", "--n", "4", "--mu", "inf"), None),
        (("plot-data", "--d", ",", "--m", "3..4"), None),
        (("plot-data", "--d", "2,2", "--m", "3..4"), None),
        *[(("search", *argv, "--point-sets", "1", "--seed", "0"), None)
          for argv in (("--d", "2", "--m", "3", "--n", "3", "--trials", "1000000000"),
                       ("--d", "2", "--m", "1000000000", "--n", "3"),
                       ("--d", "1000000000", "--m", "3", "--n", "3"))],
        (("bounds", "--d", "2", "--m", "5..3"), "error: empty range '5..3'\n"),
        # paths relative to the test's own directory
        (("verify", "missing.json"), "error: cannot read certificate: "),
        (("verify", "truncated.json"), "error: cannot read certificate: "),
        (("verify", "deep.json"), "error: cannot read certificate: "),
    ],
    ids=["bounds-non-integer", "witness-zero-radius", "search-beyond-desk-scale",
         "witness-gunn-small-radius", "witness-gunn-large-mu", "witness-gunn-nan-radius",
         "witness-takacs-inf-radius", "witness-takacs-inf-mu", "search-inf-mu",
         "plot-data-empty-d", "plot-data-repeated-d", "search-huge-trials", "search-huge-m",
         "search-huge-d", "bounds-empty-range", "verify-missing-file", "verify-non-json-file",
         "verify-deeply-nested-file"],
)
def test_bad_input_is_usage_error(capsys, tmp_path, monkeypatch, argv, want):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "truncated.json").write_text('{"schema": ')
    (tmp_path / "deep.json").write_text("[" * 100_000)   # json.load recurses once per level
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith(want or "error:")


@pytest.mark.parametrize(
    "error, code, prefix",
    [(NumericalError, EXIT_NUMERICAL, "numerical failure: "),
     (ConstructionInfeasibleError, EXIT_VERIFICATION, "error: ")],
    ids=["numerical", "other-package-error"],
)
def test_package_error_exit_codes(capsys, monkeypatch, error, code, prefix):
    def failing(d, ms):
        raise error("solver gave up")

    monkeypatch.setattr(cli, "compute_bounds_range", failing)
    assert run_cli(capsys, "bounds", "--d", "2", "--m", "3") == (code, "", f"{prefix}solver gave up\n")


@pytest.mark.parametrize(
    "kind, flag, want",
    [("gunn", "--m", "2^2000001 labelings is beyond desk scale"),
     ("takacs", "--n", "2^2000002 labelings is beyond desk scale")],
    ids=["gunn", "takacs"],
)
def test_huge_param_refused_before_any_point_is_built(capsys, monkeypatch, kind, flag, want):
    def unbuildable(param, radius):
        raise AssertionError(f"the {kind} layout of param {param} was built")

    layout = constructions._LAYOUTS[kind]
    monkeypatch.setitem(constructions._LAYOUTS, kind, layout._replace(points=unbuildable))
    code, _, err = run_cli(capsys, "witness", kind, flag, "1000000")
    assert code == EXIT_USAGE
    assert err == f"error: {want}\n"


_RADIUS_CASES = [(kind, flag, radius) for kind, flag in (("takacs", "--n"), ("gunn", "--m"))
                 for radius in ("0", "nan", "inf", "-1")]


@pytest.mark.parametrize(
    "argv, got",
    [*[(("witness", kind, flag, "4", "--radius", radius), repr(float(radius))) for kind, flag, radius in _RADIUS_CASES],
     (("verify",), "-1.0")],
    ids=[*[f"witness-{kind}-{radius}" for kind, _, radius in _RADIUS_CASES], "certificate"],
)
def test_radius_out_of_range_has_one_message_and_builds_no_point(capsys, tmp_path, monkeypatch, argv, got):
    if argv == ("verify",):
        path = tmp_path / "takacs.json"
        run_cli(capsys, "witness", "takacs", "--n", "2", "--no-meta", "--out", str(path))
        doc = json.loads(path.read_text())
        doc["radius"] = -1.0
        path.write_text(json.dumps(doc))
        argv = (*argv, str(path))

    def unbuildable(param, radius):
        raise AssertionError(f"a layout of radius {radius} was built")

    for kind in ("takacs", "gunn"):
        monkeypatch.setitem(constructions._LAYOUTS, kind, constructions._LAYOUTS[kind]._replace(points=unbuildable))
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.endswith(f"radius must be in [1e-06, 1e+06], got {got}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("bounds", "--d", "2", "--m", "3"),
        ("witness", "takacs", "--n", "2"),
        ("witness", "polytope", "--square"),
        ("plot-data", "--d", "2", "--m", "3..4"),
        ("search", "--d", "2", "--m", "3", "--n", "4"),
    ],
    ids=["bounds", "witness-takacs", "witness-polytope", "plot-data", "search"],
)
def test_unwritable_out_is_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "out"
    code, _, err = run_cli(capsys, *argv, "--out", str(path))
    assert code == EXIT_USAGE
    assert err.startswith(f"error: cannot write {path}:")


@pytest.mark.parametrize(
    "argv",
    [
        ("polytope", "--square", "--m", "4", "--radius", "2", "--mu", "0.1"),
        ("gunn", "--m", "4", "--n", "3", "--seed", "5"),
        ("takacs", "--n", "2", "--square"),
        ("gunn", "--m", "4", "--n"),   # not an abbreviation of --no-meta
        ("takacs", "--radius", "2"),
    ],
    ids=["polytope-with-construction-flags", "gunn-with-n-and-seed", "takacs-with-square",
         "gunn-with-bare-n", "takacs-without-n"],
)
def test_witness_flag_of_another_kind_is_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "witness.json"
    code, _, err = run_cli(capsys, "witness", *argv, "--no-meta", "--out", str(path))
    assert code == EXIT_USAGE
    assert "error:" in err
    assert not path.exists()


@pytest.mark.parametrize(
    "edit, want",
    [
        (lambda doc: doc["check"].update(n_samples=0), EXIT_USAGE),
        (lambda doc: doc["check"].update(band=100), EXIT_USAGE),
        (lambda doc: doc["check"].update(box_halfwidth=0), EXIT_USAGE),
        (lambda doc: doc.update(inside_label=1.5), EXIT_USAGE),
        (lambda doc: doc.update(inside_label=True), EXIT_USAGE),
        (lambda doc: doc["labels"].__setitem__(0, True), EXIT_USAGE),
        (lambda doc: doc["check"].update(seed="7"), EXIT_USAGE),
        (lambda doc: doc.update(verified="true"), EXIT_USAGE),
        (lambda doc: doc.update(verified=False), EXIT_VERIFICATION),
        # the box is the square itself, so every sample lies within the band of its boundary; the
        # check's parameters are not inputs, so this is simply not the --square document
        (lambda doc: doc["check"].update(box_halfwidth=1.0, band=0.999), EXIT_USAGE),
    ],
    ids=["no-samples", "band-wider-than-box", "zero-box", "inside-label-fraction", "inside-label-true",
         "label-true", "seed-string", "verified-string", "recorded-unverified", "no-sample-kept"],
)
def test_polytope_witness_that_checks_nothing_is_refused(capsys, tmp_path, edit, want):
    path = tmp_path / "square.json"
    run_cli(capsys, "witness", "polytope", "--square", "--seed", "0", "--no-meta", "--out", str(path))
    doc = json.loads(path.read_text())
    assert doc["labels"][0] == doc["inside_label"] == 1
    edit(doc)
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == want
    assert err.startswith("error: malformed polytope witness") if want == EXIT_USAGE else err == ""


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda doc: doc["check"].update(n_samples=2000000), "check"),
        (lambda doc: doc["check"].update(band=1e-3), "check"),
        (lambda doc: doc["check"].update(box_halfwidth=2.0), "check"),
        (lambda doc: doc["check"].update(disagreements=1), "check"),
        (lambda doc: doc["facets"]["offsets"].__setitem__(0, 2.0), "facets"),
        (lambda doc: doc.update(interior=[0.5, 0.0]), "interior"),
        (lambda doc: doc.update(inside_label=-1), "inside_label"),
        (lambda doc: doc["prototypes"][1].__setitem__(0, 2.0 + 1e-15), "prototypes"),
        (lambda doc: doc["labels"].__setitem__(1, 1), "labels"),
        (lambda doc: doc.pop("kind"), "kind"),
        (lambda doc: doc.update(extra=None), "extra"),
    ],
    ids=["n-samples", "band", "box-halfwidth", "disagreements", "facet", "interior", "inside-label",
         "prototype", "label", "kind-missing", "extra-field"],
)
def test_polytope_witness_other_than_the_square_document_is_refused(capsys, tmp_path, monkeypatch, edit, field):
    path = tmp_path / "square.json"
    run_cli(capsys, "witness", "polytope", "--square", "--seed", "0", "--no-meta", "--out", str(path))
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    sampled = []
    monkeypatch.setattr(verification, "evaluate_margins",
                        lambda *args: sampled.append(len(args[1])) or evaluate_margins(*args))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: malformed polytope witness: {field} differs from the --square document of seed 0\n"
    assert sampled == [10000]   # the rebuilt check, whatever the file asks for


@pytest.mark.parametrize("meta", [True, False], ids=["meta", "no-meta"])
def test_square_witness_verify_runs_the_check_once(capsys, tmp_path, monkeypatch, meta):
    path = tmp_path / "square.json"
    run_cli(capsys, "witness", "polytope", "--square", "--seed", "3", *([] if meta else ["--no-meta"]),
            "--out", str(path))
    assert ("meta" in json.loads(path.read_text())) == meta
    sampled = []
    monkeypatch.setattr(verification, "evaluate_margins",
                        lambda *args: sampled.append(len(args[1])) or evaluate_margins(*args))
    assert run_cli(capsys, "verify", str(path)) == (
        EXIT_OK, "membership and classification agree on 10000 samples\n", "")
    assert sampled == [10000]


@pytest.mark.parametrize(
    "argv, edit",
    [
        (("search", "--d", "2", "--m", "3", "--n", "4", "--seed", "-1"), None),
        (("witness", "polytope", "--square", "--seed", "-1"), None),
        (("witness", "takacs", "--n", "2", "--radius", "1e-9"), None),
        (("witness", "gunn", "--m", "5", "--radius", "1e-9", "--mu", "1e-13"), None),
        (("witness", "takacs", "--n", "2", "--radius", "1e155"), None),
        (("witness", "gunn", "--m", "4", "--radius", "1e154"), None),
        (("verify",), lambda doc: doc["facets"]["offsets"].append(1.0)),
        (("verify",), lambda doc: doc["facets"]["normals"].append([1, 1])),
        (("verify",), lambda doc: doc["facets"]["offsets"].__setitem__(0, "1.0")),
        (("verify",), lambda doc: doc["prototypes"][1].__setitem__(0, "2.0")),
        (("verify",), lambda doc: doc["facets"]["normals"][0].__setitem__(0, True)),
        (("verify",), lambda doc: doc.update(interior="x")),
        (("verify",), lambda doc: doc.update(interior=[5, 5])),
        (("verify",), lambda doc: doc["prototypes"][1].__setitem__(0, 2.5)),
        (("verify",), lambda doc: doc["labels"].__setitem__(1, 1)),
    ],
    ids=["search-seed-negative", "polytope-seed-negative", "takacs-tiny-radius", "gunn-tiny-radius",
         "takacs-huge-radius", "gunn-huge-radius", "polytope-extra-offset", "polytope-extra-normal", "polytope-offset-string",
         "polytope-prototype-string", "polytope-normal-true", "polytope-interior-string",
         "polytope-interior-outside", "polytope-prototype-moved", "polytope-label-flipped"],
)
def test_input_the_tool_cannot_serve_is_usage_error(capsys, tmp_path, argv, edit):
    if edit is not None:
        path = tmp_path / "square.json"
        run_cli(capsys, "witness", "polytope", "--square", "--seed", "0", "--no-meta", "--out", str(path))
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        argv = (*argv, str(path))
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(("error:", "usage:"))


def _lifted(doc: dict) -> dict:
    """``doc`` with every point and witness prototype given a third coordinate 0.0."""
    witnesses = {
        key: {**val, "prototypes": [row + [0.0] for row in val["prototypes"]]}
        for key, val in doc["witnesses"].items()
    }
    return {**doc, "points": [row + [0.0] for row in doc["points"]], "witnesses": witnesses}


def _relabelled(doc: dict, relabel) -> dict:
    witnesses = {
        key: {**val, "labels": [relabel(label) for label in val["labels"]]}
        for key, val in doc["witnesses"].items()
    }
    return {**doc, "witnesses": witnesses}


def _with_string_coordinate(doc: dict, key: str) -> dict:
    """``doc`` with the first coordinate of witness ``key`` written as a JSON string."""
    protos = [list(row) for row in doc["witnesses"][key]["prototypes"]]
    protos[0][0] = str(protos[0][0])
    return {**doc, "witnesses": {**doc["witnesses"], key: {**doc["witnesses"][key], "prototypes": protos}}}


def _witness_edited(doc: dict, key: str, edit) -> dict:
    """``doc`` with witness entry ``key`` replaced by ``edit(entry)``."""
    return {**doc, "witnesses": {**doc["witnesses"], key: edit(doc["witnesses"][key])}}


@pytest.mark.parametrize(
    "edit, want",
    [
        (lambda doc: [], None),
        (lambda doc: "x", None),
        (lambda doc: 3, None),
        (lambda doc: {**doc, "witnesses": []}, "witnesses must be a JSON "),
        (lambda doc: {**doc, "special": []}, None),
        (lambda doc: {**doc, "points": 5}, "points must be a JSON "),
        (lambda doc: {**doc, "kind": "foo"}, None),
        (lambda doc: {**doc, "witnesses": {**doc["witnesses"], "0x00": doc["witnesses"]["0x5"]}}, None),
        (lambda doc: _relabelled(doc, lambda label: 1.5 * label), None),
        (lambda doc: _relabelled(doc, lambda label: True if label == 1 else label), None),
        (lambda doc: {**doc, "verified": "false"}, None),
        (lambda doc: {**doc, "verified": 1}, None),
        (lambda doc: {**doc, "min_margin": None}, None),
        (lambda doc: {**doc, "min_margin": math.inf}, None),
        (lambda doc: {**doc, "min_margin": math.nan}, None),
        (lambda doc: {**doc, "min_margin": str(doc["min_margin"])}, None),
        (lambda doc: {**doc, "special": {"center_index": 0}}, None),
        (lambda doc: {**doc, "special": {"center_index": "x"}}, None),
        (lambda doc: {**doc, "special": {"apex_index": 0, "inner_indices": [3, 4]}}, None),
        (lambda doc: {key: val for key, val in doc.items() if key != "special"}, None),
        (lambda doc: {**doc, "radius": -1.0}, None),
        (lambda doc: {**doc, "param": 2.5}, None),
        (lambda doc: {**doc, "points": [[math.nan, 0.0]] + doc["points"][1:]}, None),
        (lambda doc: {**doc, "points": None},   # refused by the loader's type check, before Arrangement
         "points must be a JSON "),
        (lambda doc: {**doc, "points": [5.0] * len(doc["points"])}, "points must be a JSON "),
        (lambda doc: {**doc, "mu": str(doc["mu"])}, None),
        (lambda doc: {**doc, "radius": str(doc["radius"])}, None),
        (lambda doc: {**doc, "points": [[str(doc["points"][0][0]), doc["points"][0][1]]] + doc["points"][1:]},
         None),
        (lambda doc: _with_string_coordinate(doc, "0x2a"), None),
        (lambda doc: {**doc, "points": [[doc["points"][0][0] + 1e-3, doc["points"][0][1]]] + doc["points"][1:]},
         None),
        (_lifted, None),
        (lambda doc: {**doc, "witnesses": None}, "witnesses must be a JSON "),
        (lambda doc: {**doc, "witnesses": {**doc["witnesses"], "0x5": None}}, "witness 0x5 must be a JSON "),
        # each of these got a bare KeyError, TypeError or ValueError text that named neither key nor field
        (lambda doc: _witness_edited(doc, "0x13", lambda e: {"labels": e["labels"]}),
         "witness 0x13 prototypes must be a JSON "),
        (lambda doc: _witness_edited(doc, "0x13", lambda e: {**e, "prototypes": None}),
         "witness 0x13 prototypes must be a JSON "),
        (lambda doc: _witness_edited(doc, "0x13", lambda e: {**e, "prototypes": 5}),
         "witness 0x13 prototypes must be a JSON "),
        (lambda doc: _witness_edited(doc, "0x13", lambda e: {**e, "prototypes": [None] + e["prototypes"][1:]}),
         "witness 0x13 prototypes must be a JSON "),
        (lambda doc: _witness_edited(doc, "0x13", lambda e: {"prototypes": e["prototypes"]}),
         "witness 0x13 labels must be a JSON "),
        (lambda doc: _witness_edited(doc, "0x13", lambda e: {**e, "labels": None}),
         "witness 0x13 labels must be a JSON "),
        (lambda doc: _witness_edited(doc, "0x13", lambda e: {**e, "labels": 5}), "witness 0x13 labels must be a JSON "),
        (lambda doc: _witness_edited(doc, "0x13", lambda e: {**e, "labels": e["labels"][:-1]}),
         "witness 0x13 labels must be a JSON "),
        # each of these is refused by a check of a block of entries, which named no key
        (lambda doc: _witness_edited(doc, "0x13", lambda e: {**e, "labels": [2] + e["labels"][1:]}),
         "witness 0x13 labels must be +1 or -1"),
        (lambda doc: _witness_edited(doc, "0x13", lambda e: {**e, "labels": ["1"] + e["labels"][1:]}),
         "witness 0x13 labels must be JSON integers"),
        (lambda doc: _witness_edited(
            doc, "0x13", lambda e: {**e, "prototypes": [e["prototypes"][0]] * 2 + e["prototypes"][2:]}),
         "witness 0x13 prototypes must be pairwise distinct"),
        (lambda doc: _witness_edited(
            doc, "0x13", lambda e: {**e, "prototypes": [[math.nan, 0.0]] + e["prototypes"][1:]}),
         "witness 0x13 prototype coordinates must be finite"),
        (lambda doc: _witness_edited(
            doc, "0x13", lambda e: {**e, "prototypes": [e["prototypes"][0] + [0.0]] + e["prototypes"][1:]}),
         "witness 0x13 prototypes are in R^3"),
        (lambda doc: _witness_edited(doc, "0x13", lambda e: {**e, "prototypes": [["0.5", 0.0]] + e["prototypes"][1:]}),
         "witness 0x13 prototype coordinates must be JSON numbers"),
    ],
    ids=["list", "string", "number", "witnesses-list", "special-list", "points-scalar",
         "unknown-kind", "non-canonical-key", "labels-scaled", "label-true", "verified-string",
         "verified-number", "min-margin-null", "min-margin-infinite", "min-margin-nan",
         "min-margin-string", "special-wrong-centre", "special-string-centre", "special-gunn-layout",
         "special-missing", "radius-negative", "param-fraction", "point-nan", "points-null", "points-flat",
         "mu-string", "radius-string", "point-string", "witness-coordinate-string", "point-moved", "points-lifted",
         "witnesses-null", "witness-null", "prototypes-missing", "prototypes-null", "prototypes-number",
         "prototype-row-null", "labels-missing", "labels-null", "labels-number", "labels-short",
         "label-two", "label-string", "prototypes-coincident", "coordinate-nan", "prototype-in-r3",
         "coordinate-string"],
)
def test_verify_of_non_object_is_usage_error(capsys, tmp_path, edit, want):
    path = tmp_path / "takacs2.json"
    run_cli(capsys, "witness", "takacs", "--n", "2", "--no-meta", "--out", str(path))
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == EXIT_USAGE
    assert err.startswith("error:")
    if want is not None:
        assert want in err


class TestPlotData:
    def test_out_of_grid_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "plot-data", "--d", "1,2", "--m", "3..10")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("d, m", [("2,3", "999990..1000001"), ("2,65", "3..50")], ids=["m-end", "d-last"])
    def test_off_the_grid_is_refused_before_any_curve(self, capsys, monkeypatch, d, m):
        calls = []
        for name in ("tight_upper_curve", "loose_upper_curve"):
            monkeypatch.setattr(cli, name, lambda *args: calls.append(args))
        code, out, err = run_cli(capsys, "plot-data", "--d", d, "--m", m)
        assert (code, out, calls) == (EXIT_USAGE, "", [])
        assert err.startswith("error:") and "outside supported range" in err

    def test_columns_and_ordering(self, capsys):
        code, out, _ = run_cli(capsys, "plot-data", "--d", "2,3", "--m", "3..50")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert header == ["m", "tight_d2", "loose_d2", "ratio_d2", "tight_d3", "loose_d3", "ratio_d3"]
        data = np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]])
        # loose >= tight, ratio >= 1, curves monotone, planar below spatial
        assert np.all(data[:, 2] >= data[:, 1])
        assert np.all(data[:, 3] >= 1.0)
        assert np.all(data[:, 6] >= 1.0)
        assert np.all(np.diff(data[:, 1]) > 0)
        assert np.all(np.diff(data[:, 4]) > 0)
        assert np.all(data[:, 1] <= data[:, 4])


class TestSearchCommand:
    def test_search_writes_certificate(self, capsys, tmp_path):
        path = tmp_path / "search.json"
        code, out, _ = run_cli(
            capsys, "search", "--d", "2", "--m", "2", "--n", "3",
            "--trials", "16", "--point-sets", "2", "--steps", "80",
            "--seed", "0", "--no-meta", "--out", str(path),
        )
        assert code == EXIT_OK
        assert "certificate found" in out
        code, _, _ = run_cli(capsys, "verify", str(path))
        assert code == EXIT_OK

    @pytest.mark.parametrize(
        "d, n, digest",
        [("2", "6", "f4093fb7110882186eb710362e31d373ddc5a4962b10c1a5982e95b730b9c5bc"),
         ("3", "7", "4804ed49a4aa9356e712001a7e79720533e9c06d18cc7c98b938e380b8736778")],
        ids=["d2", "d3"],
    )
    def test_search_certificate_bytes_are_frozen(self, capsys, tmp_path, d, n, digest):
        # d2 was recorded with the per-restart search, d3 before the kernel scored moves
        # from cached minima; the search is deterministic
        path = tmp_path / "search.json"
        code, _, _ = run_cli(capsys, "search", "--d", d, "--m", "3", "--n", n, "--seed", "0",
                             "--no-meta", "--out", str(path))
        assert code == EXIT_OK
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_search_failure_reports_budget(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--d", "2", "--m", "2", "--n", "6",
            "--trials", "4", "--point-sets", "1", "--steps", "30", "--seed", "0",
        )
        assert code == EXIT_VERIFICATION
        assert "proves nothing" in out


class TestSweepParts:
    """A sweep in one part (in this process) and in two forked parts: the same bytes, lines and codes."""

    def _in_parts(self, capsys, sweep_parts, *argv):
        results = []
        for parts in (1, 2):
            sweep_parts(parts)
            results.append(run_cli(capsys, *argv))
            assert multiprocessing.active_children() == []
        assert results[0] == results[1]
        return results[0]

    @pytest.mark.parametrize(
        "argv, code, digest, line",
        [
            (("gunn", "--m", "6"), EXIT_OK, "789e0a2889121ccd7f233a5770fbf2ea31a5f35bcdbdd2634559e80c17caa3fe",
             "all 8192 labelings pass at mu 1.0e-06 (min margin 0.00120418)"),
            (("takacs", "--n", "5"), EXIT_OK, "c438d2d9ccfdaeb3532ea84bd109b349aa98de3453b27a050de5d589a8665b28",
             "all 4096 labelings pass at mu 1.0e-06 (min margin 0.0101786)"),
            # cut at its first failure, 0x3f, with the 63 witnesses below it
            (("takacs", "--n", "5", "--mu", "0.011", "--force"), EXIT_VERIFICATION,
             "6a5b78dedf81748a4b33d37910b0ea33c878d990c126b8690548e6c9eb54b04b",
             "labelling 0x3f: missing from certificate"),
        ],
        ids=["gunn6", "takacs5", "takacs5-partial"],
    )
    def test_frozen_bytes_and_verify_line(self, capsys, tmp_path, sweep_parts, argv, code, digest, line):
        for parts in (1, 2):
            sweep_parts(parts)
            path = tmp_path / f"{parts}.json"
            assert run_cli(capsys, "witness", *argv, "--no-meta", "--out", str(path))[0] == code
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
            assert run_cli(capsys, "verify", str(path)) == (code, line + "\n", "")
            assert multiprocessing.active_children() == []

    def test_worker_error_is_the_same_usage_error(self, capsys, sweep_parts):
        code, _, err = self._in_parts(capsys, sweep_parts, "witness", "gunn", "--m", "6", "--mu", "0.01")
        assert code == EXIT_USAGE
        assert err == "error: mu / radius = 0.01 exceeds 0.001, the largest margin ratio the gunn construction supports\n"

    @pytest.mark.parametrize("edit", ["flip", "drop", "halve-margin"])
    def test_broken_certificate_fails_at_the_same_labelling(self, capsys, tmp_path, sweep_parts, edit):
        path = tmp_path / "takacs5.json"
        run_cli(capsys, "witness", "takacs", "--n", "5", "--no-meta", "--out", str(path))
        doc = json.loads(path.read_text())
        if edit == "flip":   # one label of a witness in the upper half
            doc["witnesses"]["0xa53"]["labels"][0] *= -1
        elif edit == "drop":
            del doc["witnesses"]["0xc00"]
        else:   # every labelling passes, but not at the recorded margin
            doc["min_margin"] /= 2
        path.write_text(json.dumps(doc))
        code, out, _ = self._in_parts(capsys, sweep_parts, "verify", str(path))
        assert code == EXIT_VERIFICATION
        assert out.startswith({"flip": "labelling 0xa53: witness misclassifies",
                               "drop": "labelling 0xc00: missing from certificate",
                               "halve-margin": f"recorded min margin {doc['min_margin']!r} does not match "
                                               f"recomputed {2 * doc['min_margin']!r}"}[edit])

    def test_search_bytes_are_frozen(self, capsys, tmp_path, sweep_parts):
        for parts in (1, 2):
            sweep_parts(parts)
            path = tmp_path / f"{parts}.json"
            code, _, _ = run_cli(capsys, "search", "--d", "2", "--m", "3", "--n", "6", "--seed", "0",
                                 "--no-meta", "--out", str(path))
            assert code == EXIT_OK
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            assert digest == "f4093fb7110882186eb710362e31d373ddc5a4962b10c1a5982e95b730b9c5bc"
            assert multiprocessing.active_children() == []

    def test_search_failure_reports_budget(self, capsys, sweep_parts):
        code, out, _ = self._in_parts(capsys, sweep_parts, "search", "--d", "2", "--m", "2", "--n", "6",
                                      "--trials", "4", "--point-sets", "1", "--steps", "30", "--seed", "0")
        assert code == EXIT_VERIFICATION
        assert "proves nothing" in out
