import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import atomembed
from atomembed import (
    atom_metric,
    det_closed_form,
    det_numeric,
    gram_matrix,
    is_flat,
    load_measure,
    validate_measure,
)
from atomembed.cli import main
from atomembed.scalars import scalar_to_json
from det_oracle import lemma_sum

#: 10^400 written out: exact, and far beyond double range
HUGE = "1" + "0" * 400


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_measure(tmp_path, name, weights, normalized=None):
    doc = {"weights": weights}
    if normalized is not None:
        doc["normalized"] = normalized
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def binom5(tmp_path):
    return write_measure(tmp_path, "b5.json",
                         ["1/32", "5/32", "5/16", "5/16", "5/32", "1/32"])


@pytest.fixture
def uniform4(tmp_path):
    return write_measure(tmp_path, "u4.json", ["1/4"] * 4)


class TestFamilyCommand:
    def test_binomial_emits_measure_json(self, capsys):
        code, out, _ = run(capsys, "family", "binomial", "--n", "5", "--p", "1/2")
        assert code == 0
        doc = json.loads(out)
        assert doc["weights"] == ["1/32", "5/32", "5/16", "5/16", "5/32", "1/32"]
        assert doc["normalized"] is True

    def test_custom_with_normalize(self, capsys):
        code, out, _ = run(capsys, "family", "custom",
                           "--weights", "2,2,2,2", "--normalize")
        assert code == 0
        assert json.loads(out)["weights"] == ["1/4"] * 4

    def test_missing_parameter(self, capsys):
        code, _, err = run(capsys, "family", "binomial", "--n", "5")
        assert code == 1
        assert "needs" in err

    def test_custom_float_weights_with_normalize(self, capsys):
        # normalized float weights are summed by numpy's pairwise sum
        code, out, _ = run(capsys, "family", "custom",
                           "--weights", "0.1,0.2,0.3", "--normalize")
        assert code == 0
        assert json.loads(out) == {
            "weights": [0.16666666666666666, 0.3333333333333333, 0.4999999999999999],
            "normalized": True}

    @pytest.mark.parametrize("argv, number", [
        (["family", "binomial", "--n", "5", "--p", "1/0"], "1/0"),
        (["family", "custom", "--weights", "1,2,3/0"], "3/0"),
        (["sweep", "binomial", "--n", "5", "--p", "1/2", "--param", "p",
          "--start", "1/0", "--stop", "1/2", "--steps", "3"], "1/0"),
    ], ids=["family_binomial", "family_custom", "sweep"])
    def test_zero_denominator_exits_one(self, capsys, argv, number):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"atomembed: error: cannot parse number {number!r}\n"

    def test_round_trip_family_check(self, capsys, tmp_path):
        code, out, _ = run(capsys, "family", "binomial", "--n", "5", "--p", "1/2")
        saved = tmp_path / "m.json"
        saved.write_text(out)
        code1, out1, _ = run(capsys, "check", str(saved))
        code2, out2, _ = run(capsys, "check", str(saved))
        assert code1 == code2 == 0
        assert out1 == out2
        assert json.loads(out1)["verdict"] == "not_embeddable"

    def test_piped_family_check_equals_file_check(self, capsys, tmp_path,
                                                  monkeypatch):
        import io

        code, family_out, _ = run(capsys, "family", "binomial", "--n", "4",
                                  "--p", "1/2")
        assert code == 0
        saved = tmp_path / "m.json"
        saved.write_text(family_out)
        _, from_file, _ = run(capsys, "check", str(saved))
        monkeypatch.setattr("sys.stdin", io.StringIO(family_out))
        _, from_pipe, _ = run(capsys, "check", "-")
        assert from_pipe == from_file


class TestCheckAndClassify:
    def test_check_binomial_five(self, capsys, binom5):
        code, out, _ = run(capsys, "check", binom5)
        assert code == 0
        doc = json.loads(out)
        assert doc["flat"] is False
        assert doc["witness"] == [0, 1, 2, 3]
        assert doc["checked_count"] == 22
        assert doc["subset_values"]["0,1,2,3,4,5"] == "-41984/25"

    def test_check_refuses_a_table_over_a_million_rows(self, capsys, tmp_path, monkeypatch):
        path = write_measure(tmp_path, "b20.json", [str(math.comb(20, i)) for i in range(21)])

        def no_table(*args, **kwargs):
            raise AssertionError("a row was built")

        monkeypatch.setattr("atomembed.cli.criterion_table", no_table)
        code, out, err = run(capsys, "check", path)
        assert code == 1 and out == ""
        rows = 2 ** 21 - 1 - 21 - 210 - 1330
        assert err == (f"atomembed: error: check would print {rows} subset rows for "
                       f"21 atoms (at most 1048576); use classify for the verdict\n")
        code, out, _ = run(capsys, "classify", path)
        assert code == 0 and json.loads(out)["witness"] == [0, 1, 2, 3]

    def test_classify_uniform(self, capsys, uniform4):
        code, out, _ = run(capsys, "classify", uniform4)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "embeddable"
        assert doc["dimension"] == 3

    def test_exact_flag_rejects_float_weights(self, capsys, tmp_path):
        path = write_measure(tmp_path, "f.json", [0.1, 0.9])
        code, _, err = run(capsys, "check", path, "--exact")
        assert code == 1
        assert "mode conflict" in err

    def test_float_boundary_is_embeddable(self, capsys, tmp_path):
        # the float criterion reads 0; the exact one of these doubles is +4.7e-15
        t = 3.0 + 2.0 * math.sqrt(3.0)
        path = write_measure(tmp_path, "b.json", [1.0, 1.0, 1.0, 1.0 / t])
        code, out, _ = run(capsys, "classify", path)
        assert code == 0
        assert json.loads(out) == {"verdict": "embeddable", "dimension": 3,
                                   "witness": None, "reason": None}

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "check", str(path))
        assert code == 1
        assert "malformed JSON" in err

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "check", "/nonexistent/measure.json")
        assert code == 1 and out == ""
        assert err == "atomembed: error: /nonexistent/measure.json: No such file or directory\n"

    def test_inconsistent_normalized_flag(self, capsys, tmp_path):
        path = write_measure(tmp_path, "n.json", [1, 1], normalized=True)
        code, _, err = run(capsys, "check", path)
        assert code == 1
        assert "normalized" in err

    def test_weights_that_are_not_an_array(self, capsys, tmp_path):
        # a string of digits used to be read as one weight per character
        path = write_measure(tmp_path, "s.json", "1234")
        code, out, err = run(capsys, "classify", path)
        assert code == 1 and out == ""
        assert err == ('atomembed: invalid input: measure document must be an '
                       'object with a "weights" array\n')

    @pytest.mark.parametrize("argv", [
        ["classify", "{m}", "--out", "{bad}"],
        ["embed", "{m}", "--out", "{bad}"],
        ["sample", "--k", "4", "--count", "5", "--rows", "{bad}"],
        ["bisect", "{u6}", "{b5}", "--trace", "{bad}"],
    ], ids=["classify", "embed", "sample", "bisect"])
    def test_unwritable_output_path_exits_one(self, capsys, tmp_path, uniform4, binom5,
                                              argv):
        bad = str(tmp_path / "missing" / "x.csv")
        u6 = write_measure(tmp_path, "u6.json", ["1/6"] * 6)
        argv = [a.format(m=uniform4, b5=binom5, bad=bad, u6=u6) for a in argv]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err == f"atomembed: error: {bad}: No such file or directory\n"

    def test_directory_as_measure_exits_one(self, capsys, tmp_path):
        code, out, err = run(capsys, "classify", str(tmp_path))
        assert code == 1 and out == ""
        assert err == f"atomembed: error: {tmp_path}: Is a directory\n"

    def test_closed_stdout_ends_quietly(self, tmp_path):
        # as in `atomembed check b14.json | head -c 1`: about 0.7 MB of rows
        # meet a pipe whose reader has gone
        path = write_measure(tmp_path, "b14.json", [str(math.comb(13, i)) for i in range(14)])
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(atomembed.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        with subprocess.Popen([sys.executable, "-m", "atomembed.cli", "check", path],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as child:
            assert child.stdout.read(1) == b"{"
            child.stdout.close()
            try:
                _, err = child.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                child.kill()
                pytest.fail("atomembed check did not end after its stdout was closed")
        assert (child.returncode, err) == (1, b"")


class TestNonFiniteValues:
    @pytest.mark.parametrize("token, shown", [("Infinity", "inf"),
                                              ("-Infinity", "-inf"),
                                              ("NaN", "nan")])
    @pytest.mark.parametrize("command", ["classify", "check", "det", "embed"])
    def test_non_finite_weight_exits_one(self, capsys, tmp_path, command,
                                         token, shown):
        path = tmp_path / "m.json"
        path.write_text('{"weights": [1, 2, 3, %s]}' % token)
        code, out, err = run(capsys, command, str(path))
        assert code == 1
        assert out == ""
        assert err == ("atomembed: invalid input: "
                       f"non-finite weight at index 3: {shown}\n")

    @pytest.mark.parametrize("tiny", [5e-324])
    def test_overflowing_criterion_is_decided(self, capsys, tmp_path, tiny):
        # 1/tiny is inf, so the float criterion is inf - inf; the exact value
        # 3 + 6Z - Z^2 (Z = 1/tiny) of the same doubles is negative
        path = write_measure(tmp_path, "t.json", [1.0, 1.0, 1.0, tiny])
        code, out, _ = run(capsys, "classify", path)
        assert code == 0
        doc = json.loads(out)
        assert (doc["verdict"], doc["witness"]) == ("not_embeddable", [0, 1, 2, 3])

    def test_criterion_with_overflowing_squares_is_decided(self, capsys, tmp_path):
        # Z^2 = 1e600 overflows; the reciprocals scaled by a power of two give
        # the sign of 3 + 6Z - Z^2
        path = write_measure(tmp_path, "t.json", [1.0, 1.0, 1.0, 1e-300])
        code, out, _ = run(capsys, "classify", path)
        assert code == 0
        doc = json.loads(out)
        assert (doc["verdict"], doc["witness"]) == ("not_embeddable", [0, 1, 2, 3])

    @pytest.mark.parametrize("command", ["classify", "check", "det"])
    def test_reciprocal_sum_beyond_double_range_is_decided(self, capsys, tmp_path, command):
        # each 1/x is about 1e308, so math.fsum of them overflows
        path = write_measure(tmp_path, "t.json", [1e-308] * 4)
        code, out, err = run(capsys, command, path)
        assert (code, err) == (0, "")
        key, want = ("sign", "positive") if command == "det" else ("verdict", "embeddable")
        assert json.loads(out)[key] == want

    @pytest.mark.parametrize("tiny, code", [(1e-300, 0), (5e-324, 0)])
    def test_det_of_a_weight_with_underflowing_square(self, capsys, tmp_path, tiny, code):
        # both O(n) routes round the exact determinant -4 + O(tiny); the
        # criterion is -inf (null) at 1e-300, and at 5e-324, where 1/tiny is
        # inf, the exact criterion of the doubles is below -2^2000: -inf too
        path = write_measure(tmp_path, "t.json", [1.0, 1.0, 1.0, tiny])
        got, out, err = run(capsys, "det", path)
        assert (got, err) == (code, "")
        doc = json.loads(out)
        assert doc["values"]["closed"] == doc["values"]["lemma"] == -4.0
        assert (doc["criterion"], doc["sign"]) == (None, "negative")


    def test_det_of_an_overflowing_triple_product_prints_null(self, capsys, tmp_path):
        # (1 + 1e200)^2 does not fit a double, but no route squares a double:
        # each rounds the exact determinant, about 1.2e401, to inf (null)
        xs = [1.0, 1.0, 1.0, 1e200]
        path = write_measure(tmp_path, "h.json", xs)
        code, out, err = run(capsys, "det", path)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["values"] == {"closed": None, "numeric": None, "lemma": None}
        assert det_closed_form([Fraction(x) for x in xs]) > 2 ** 1024
        assert doc["sign"] == "positive"

    @pytest.mark.parametrize("command", ["embed"])
    def test_overflowing_triple_product_exits_one(self, capsys, tmp_path, command):
        # embed scales float weights by a power of two first, so it embeds
        # [1, 1, 1, 1e200]; at 1e308 the light weights, scaled by 2^-512,
        # have squares below the normal range
        path = write_measure(tmp_path, "h.json", [1.0, 1.0, 1.0, 1e308])
        code, out, err = run(capsys, command, path)
        assert code == 1
        assert out == ""
        assert err == ("atomembed: invalid input: the embedding coordinates or their "
                       "squares are beyond double range\n")

    @pytest.mark.parametrize("weights, argv, code, key", [
        ([1.0, 1.0, 1.0, 1e-300], ["check"], 0, ("subset_values", "0,1,2,3")),
        ([1.0, 1.0, 1.0, 1e-300], ["det", "--mode", "closed"], 0, ("criterion",)),
        ([1.0, 1.0, 1.0, 1e200], ["det", "--mode", "closed"], 0, ("values", "closed")),
    ])
    def test_non_finite_value_prints_null(self, capsys, tmp_path, weights, argv,
                                          code, key):
        def refuse(token):
            raise AssertionError(f"{token} is not JSON")

        path = write_measure(tmp_path, "m.json", weights)
        got, out, _ = run(capsys, argv[0], path, *argv[1:])
        assert got == code
        doc = json.loads(out, parse_constant=refuse)
        for part in key:
            doc = doc[part]
        assert doc is None


class TestDetCommand:
    def test_all_modes_agree_on_uniform(self, capsys, uniform4):
        code, out, _ = run(capsys, "det", uniform4, "--mode", "all")
        assert code == 0
        doc = json.loads(out)
        assert doc["values"]["closed"] == "1/128"
        assert doc["values"]["numeric"] == "1/128"
        assert doc["values"]["lemma"] == "1/128"
        assert doc["sign"] == "positive"

    def test_subset_selection(self, capsys, binom5):
        code, out, _ = run(capsys, "det", binom5, "--simplex", "0,1,2,3")
        assert code == 0
        doc = json.loads(out)
        assert doc["sign"] == "negative"
        assert doc["criterion"] == "-4096/25"

    def test_simplex_report_covers_the_simplex_alone(self, capsys, binom5):
        from atomembed import cli

        with mock.patch.object(cli, "is_flat", wraps=cli.is_flat) as report:
            code, out, _ = run(capsys, "det", binom5, "--simplex", "3,0,2,1")
        assert code == 0 and report.call_count == 1
        # the sorted simplex 0, 1, 2, 3 of binomial(5, 1/2)
        assert report.call_args.args[0].weights == tuple(map(Fraction, ["1/32", "5/32",
                                                                         "5/16", "5/16"]))
        doc = json.loads(out)
        whole = is_flat(load_measure(binom5)).subset_values
        assert doc["criterion"] == scalar_to_json(whole[(0, 1, 2, 3)]) == "-4096/25"
        assert doc["sign"] == whole.sign((0, 1, 2, 3)) == "negative"

    def test_boundary_float_is_signed_exactly(self, capsys, tmp_path):
        # inside the float margin the criterion is the exact one of the
        # doubles, rounded once: (1/x summed as Fractions), not 0.0
        t = 3.0 + 2.0 * math.sqrt(3.0)
        xs = [1.0, 1.0, 1.0, 1.0 / t]
        path = write_measure(tmp_path, "b.json", xs)
        code, out, _ = run(capsys, "det", path)
        assert code == 0
        doc = json.loads(out)
        zs = [1 / Fraction(x) for x in xs]
        assert doc["criterion"] == float(sum(zs) ** 2 - 2 * sum(z * z for z in zs))
        assert doc["sign"] == "positive"

    def test_pair_rejected(self, capsys, uniform4):
        code, _, err = run(capsys, "det", uniform4, "--simplex", "0,1")
        assert code == 1
        assert "3 points" in err

    @pytest.mark.parametrize("mode", ["closed", "numeric", "lemma", "all"])
    @pytest.mark.parametrize("simplex", ["0,1,9", "0,1,-1", "0,1,1"])
    def test_bad_simplex_exits_one(self, capsys, uniform4, simplex, mode):
        code, out, err = run(capsys, "det", uniform4, "--simplex", simplex,
                             "--mode", mode)
        assert code == 1
        assert out == ""
        assert err == (f"atomembed: error: simplex {simplex} must list distinct "
                       "atom indices from 0 to 3\n")

    @pytest.mark.parametrize("mode", ["closed", "numeric", "lemma", "all"])
    @pytest.mark.parametrize("weights, sign", [
        (["1", "1", "1", "1/" + HUGE], "negative"),
        (["1", "2", "3", HUGE], "positive"),
    ])
    def test_exact_weights_beyond_double_range(self, capsys, tmp_path, weights,
                                               sign, mode):
        zs = [1 / Fraction(w) for w in weights]
        criterion = sum(zs) ** 2 - (len(zs) - 2) * sum(z * z for z in zs)
        path = write_measure(tmp_path, "m.json", weights)
        code, out, _ = run(capsys, "det", path, "--mode", mode)
        assert code == 0
        doc = json.loads(out)
        assert doc["criterion"] == scalar_to_json(criterion)
        assert doc["sign"] == sign


    @pytest.mark.parametrize("simplex", ["", "0,1,x", "0,,1"])
    def test_simplex_that_is_not_a_list_of_integers(self, capsys, uniform4, simplex):
        code, out, err = run(capsys, "det", uniform4, "--simplex", simplex)
        assert (code, out) == (1, "")
        assert err == ("atomembed: error: --simplex takes comma-separated atom "
                       f"indices, got {simplex!r}\n")

    @pytest.mark.parametrize("weights, simplex, fallback", [
        # the leading four atoms are a zero point: the pivot of atom 3 is 0
        ([1, 1, "1/4", "1/12", "1/2", "1/3"], None, True),
        (["1/32", "5/32", "5/16", "5/16", "5/32", "1/32"], "2,0,1,5,3", False),
        (["1", "2", "3", HUGE], None, False),
        (["1/" + HUGE, "1", "1", "1"], "1,0,2,3", False),
    ], ids=["zero_pivot", "heavy_base", "huge", "tiny_off_base"])
    def test_exact_values_equal_the_oracles(self, capsys, tmp_path, monkeypatch,
                                            weights, simplex, fallback):
        from atomembed import gram

        calls = []
        monkeypatch.setattr(gram, "det_numeric",
                            lambda g: calls.append(g) or det_numeric(g))
        path = write_measure(tmp_path, "m.json", weights)
        argv = ["det", path] + (["--simplex", simplex] if simplex else [])
        code, out, _ = run(capsys, *argv)
        assert code == 0
        m = validate_measure([Fraction(w) for w in weights])
        pts = [int(i) for i in simplex.split(",")] if simplex else list(range(m.size))
        want = det_numeric(gram_matrix(atom_metric(m), pts))
        values = json.loads(out)["values"]
        assert values["numeric"] == values["lemma"] == scalar_to_json(want)
        assert scalar_to_json(lemma_sum(m.subset_weights(pts))) == values["lemma"]
        assert len(calls) == fallback

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.01, 100.0), min_size=3, max_size=12), st.randoms())
    def test_float_numeric_is_elimination_bit_for_bit(self, weights, rnd):
        pts = list(range(len(weights)))
        rnd.shuffle(pts)
        pts = pts[:rnd.randint(3, len(pts))]
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "m.json")
            with open(path, "w") as fh:
                json.dump({"weights": weights}, fh)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                main(["det", path, "--mode", "numeric",
                      "--simplex", ",".join(map(str, pts))])
        # Bareiss elimination of the Gram matrix of the exact doubles, rounded once
        exact = validate_measure([Fraction(w) for w in weights])
        want = float(det_numeric(gram_matrix(atom_metric(exact), pts)))
        assert json.loads(out.getvalue())["values"]["numeric"] == want


    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.01, 100.0), min_size=3, max_size=12))
    def test_float_closed_and_lemma_print_the_same_double(self, weights):
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "m.json")
            with open(path, "w") as fh:
                json.dump({"weights": weights}, fh)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                main(["det", path, "--mode", "all"])
        doc = json.loads(out.getvalue())
        values = doc["values"]
        exact = det_closed_form([Fraction(w) for w in weights])
        assert values["closed"] == values["numeric"] == values["lemma"] == float(exact)
        assert doc["sign"] == ("positive" if exact > 0 else "negative" if exact < 0 else "zero")


class TestEmbedCommand:
    def test_uniform_to_file(self, capsys, uniform4, tmp_path):
        out_csv = tmp_path / "coords.csv"
        code, out, _ = run(capsys, "embed", uniform4, "--out", str(out_csv))
        assert code == 0
        summary = json.loads(out)
        assert summary["dimension"] == 3
        assert summary["max_residual"] <= 1e-8
        with open(out_csv) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["c0", "c1", "c2"]
        assert len(rows) == 5
        pts = [[float(v) for v in row] for row in rows[1:]]
        for i in range(4):
            for j in range(i + 1, 4):
                dist = math.dist(pts[i], pts[j])
                assert abs(dist - 0.5) < 1e-10

    def test_stdout_csv_and_stderr_summary(self, capsys, uniform4):
        code, out, err = run(capsys, "embed", uniform4)
        assert code == 0
        assert out.splitlines()[0] == "c0,c1,c2"
        assert json.loads(err)["dimension"] == 3

    def test_not_flat_is_an_error(self, capsys, binom5):
        code, _, err = run(capsys, "embed", binom5)
        assert code == 1
        assert "witness" in err

    def test_gram_beyond_double_range_exits_one(self, capsys, tmp_path):
        # embeddable, but the coordinates of atom 3 are about 10^400
        path = write_measure(tmp_path, "h.json", ["1", "2", "3", HUGE])
        code, out, _ = run(capsys, "classify", path)
        assert (code, json.loads(out)["verdict"]) == (0, "embeddable")
        code, out, err = run(capsys, "embed", path)
        assert code == 1
        assert out == ""
        assert err == ("atomembed: invalid input: the embedding coordinates or their "
                       "squares are beyond double range\n")

    @pytest.mark.parametrize("weights", [[1e-310] * 3, ["1/" + "1" + "0" * 210] * 3])
    def test_squares_below_double_range_exit_one(self, capsys, tmp_path, weights):
        # embeddable at any scale, but x^2 is below the smallest normal double;
        # a subnormal float weight stays refused after rescaling, because its
        # coordinates would keep fewer bits than the residual check sees
        path = write_measure(tmp_path, "t.json", weights)
        code, out, err = run(capsys, "embed", path)
        assert (code, out) == (1, "")
        assert err == ("atomembed: invalid input: the embedding coordinates or their "
                       "squares are beyond double range\n")

    def test_float_squares_below_double_range_embed(self, capsys, tmp_path):
        # the weights are scaled by 2^996 before the recurrence and the
        # coordinates scaled back, so no square leaves the double range
        path = write_measure(tmp_path, "t.json", [1e-300] * 3)
        code, out, err = run(capsys, "embed", path)
        assert code == 0
        summary = json.loads(err)
        assert (summary["dimension"], summary["base"]) == (2, 0)
        assert summary["max_residual"] <= 1e-12
        rows = [[float(v) for v in row.split(",")] for row in out.splitlines()[1:]]
        assert rows[1] == [2e-300, 0.0]
        assert math.dist(rows[1], rows[2]) == pytest.approx(2e-300, rel=1e-15)

    @pytest.mark.parametrize("weights, dim", [
        ([1, 1, 1, 10**12], 3),
        ([3, 3, 3, 3, 3, 10**8], 5),
        ([10**12, 1, 1, 1], 3),
        ([1, 1, 1, 1, 10**12, 10**24], 5),
        ([1.0, 1.0, 1.0, 1e200], 3),
    ])
    def test_wide_ratio_measures_embed(self, capsys, tmp_path, weights, dim):
        # an absolute residual bound cannot be met at distance 10^12
        path = write_measure(tmp_path, "w.json", weights)
        code, out, err = run(capsys, "embed", path)
        assert code == 0
        summary = json.loads(err)
        assert summary["dimension"] == dim
        assert summary["max_residual"] <= 1e-12
        assert len(out.splitlines()) == len(weights) + 1

    def test_tolerance_is_not_an_option(self, capsys, uniform4):
        # the residual bound is the constant ISOMETRY_TOL: a NaN or infinite
        # --tol once switched the residual check off
        code, out, err = run(capsys, "embed", uniform4, "--tol", "1e-3")
        assert code == 1 and out == ""
        assert err == "atomembed: error: unrecognized arguments: --tol 1e-3\n"


class TestSweepCommand:
    def test_binomial_trials_sweep(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "sweep", "binomial", "--p", "1/2", "--n", "2",
                           "--param", "n", "--start", "2", "--stop", "5",
                           "--steps", "4", "--out", str(out_csv))
        assert code == 0
        assert json.loads(out) == {
            "rows": 4, "embeddable": 3, "not_embeddable": 1, "indeterminate": 0}
        with open(out_csv) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["parameter", "verdict", "worst_value", "witness"]
        assert [r[1] for r in rows[1:]] == ["E", "E", "E", "N"]
        # the worst subset of binomial(5,1/2) is the full atom set
        assert rows[4][3] == "0|1|2|3|4|5"

    def test_hypergeometric_draws_sweep(self, capsys):
        code, out, err = run(capsys, "sweep", "hypergeometric",
                             "--population", "8", "--successes", "4",
                             "--draws", "2", "--param", "draws",
                             "--start", "1", "--stop", "4", "--steps", "4")
        assert code == 0
        verdicts = [line.split(",")[1] for line in out.splitlines()[1:]]
        assert len(verdicts) == 4
        assert set(verdicts) <= {"E", "N"}
        assert json.loads(err)["rows"] == 4

    def test_unknown_param(self, capsys):
        code, _, err = run(capsys, "sweep", "uniform", "--atoms", "4",
                           "--param", "p", "--start", "1", "--stop", "2",
                           "--steps", "2")
        assert code == 1
        assert "sweep parameter" in err


class TestSampleCommand:
    def test_summary_and_rows(self, capsys, tmp_path):
        rows_csv = tmp_path / "rows.csv"
        code, out, _ = run(capsys, "sample", "--k", "4", "--count", "50",
                           "--seed", "12", "--rows", str(rows_csv))
        assert code == 0
        doc = json.loads(out)
        assert doc["total"] == 50
        assert doc["seed"] == 12
        with open(rows_csv) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 51
        assert rows[0][:2] == ["index", "w0"]

    def test_jobs_flag_is_bit_stable(self, capsys, tmp_path):
        csv1, csv2 = tmp_path / "a.csv", tmp_path / "b.csv"
        code1, out1, _ = run(capsys, "sample", "--k", "5", "--count", "120",
                             "--seed", "4", "--jobs", "1", "--rows", str(csv1))
        code2, out2, _ = run(capsys, "sample", "--k", "5", "--count", "120",
                             "--seed", "4", "--jobs", "3", "--rows", str(csv2))
        assert code1 == code2 == 0
        assert out1 == out2
        assert csv1.read_bytes() == csv2.read_bytes()

    def test_seed_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("ATOMEMBED_SEED", "99")
        code, out, _ = run(capsys, "sample", "--k", "4", "--count", "10")
        assert code == 0
        assert json.loads(out)["seed"] == 99

    @pytest.mark.parametrize("flag", [True, False], ids=["flag", "environment"])
    def test_negative_seed_exits_one(self, capsys, monkeypatch, flag):
        argv = ["sample", "--k", "3", "--count", "5"]
        if flag:
            argv += ["--seed", "-1"]
        else:
            monkeypatch.setenv("ATOMEMBED_SEED", "-1")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "atomembed: invalid input: seed must be nonnegative, got -1\n"

    def test_bad_count(self, capsys):
        code, _, err = run(capsys, "sample", "--k", "4", "--count", "0")
        assert code == 1
        assert "count" in err

    def test_seed_from_environment_must_be_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("ATOMEMBED_SEED", "abc")
        code, out, err = run(capsys, "sample", "--k", "4", "--count", "5")
        assert (code, out) == (1, "")
        assert err == "atomembed: error: ATOMEMBED_SEED must be an integer, got 'abc'\n"


class TestBisectCommand:
    def test_uniform_to_binomial(self, capsys, tmp_path, binom5):
        u6 = write_measure(tmp_path, "u6.json", ["1/6"] * 6)
        trace_csv = tmp_path / "trace.csv"
        code, out, _ = run(capsys, "bisect", u6, binom5, "--tol", "1e-6",
                           "--trace", str(trace_csv))
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict_low"] == "E"
        assert doc["verdict_high"] == "N"
        assert doc["width"] <= 1e-6
        assert abs(doc["boundary_decimal"] - 0.844821) < 1e-4
        with open(trace_csv) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "lower", "upper", "midpoint", "verdict"]
        assert len(rows) == doc["iterations"] + 1

    def test_no_crossing(self, capsys, tmp_path, uniform4):
        code, _, err = run(capsys, "bisect", uniform4, uniform4)
        assert code == 1
        assert "nothing to bracket" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_tolerance_must_be_finite_and_positive(self, capsys, tmp_path, binom5, tol):
        # a NaN tolerance used to end the loop at once with boundary 1/2
        u6 = write_measure(tmp_path, "u6.json", ["1/6"] * 6)
        code, out, err = run(capsys, "bisect", u6, binom5, "--tol", tol)
        assert code == 1 and out == ""
        assert err == (f"atomembed: invalid input: tolerance must be finite and "
                       f"positive, got {float(tol)}\n")

    @pytest.mark.parametrize("flag, message", [
        ("--scan", "scan steps must be nonnegative, got -1"),
    ])
    def test_negative_counts_are_refused(self, capsys, tmp_path, binom5, flag, message):
        # a negative scan used to run as no scan at all
        u6 = write_measure(tmp_path, "u6.json", ["1/6"] * 6)
        code, out, err = run(capsys, "bisect", u6, binom5, flag, "-1")
        assert code == 1 and out == ""
        assert err == f"atomembed: invalid input: {message}\n"

    def test_zero_counts_keep_their_meaning(self, capsys, tmp_path, binom5):
        u6 = write_measure(tmp_path, "u6.json", ["1/6"] * 6)
        assert run(capsys, "bisect", u6, binom5, "--scan", "0") == run(capsys, "bisect",
                                                                     u6, binom5)

    @pytest.mark.parametrize("mode", [[], ["--float"]], ids=["exact", "float"])
    def test_smallest_positive_tolerance_ends(self, capsys, tmp_path, binom5, mode):
        # exact halving needs no iteration limit: 2^-1074 is the smallest
        # positive double
        u6 = write_measure(tmp_path, "u6.json", ["1/6"] * 6)
        code, out, _ = run(capsys, "bisect", u6, binom5, "--tol", "5e-324", *mode)
        doc = json.loads(out)
        assert code == 0
        assert (doc["iterations"], doc["verdict_low"], doc["verdict_high"]) == (1074, "E", "N")
        assert Fraction(doc["upper"]) - Fraction(doc["lower"]) == Fraction(1, 2 ** 1074)

    def test_iteration_limit_is_not_an_option(self, capsys, tmp_path, binom5):
        u6 = write_measure(tmp_path, "u6.json", ["1/6"] * 6)
        code, out, err = run(capsys, "bisect", u6, binom5, "--max-iter", "5")
        assert code == 1 and out == ""
        assert err == "atomembed: error: unrecognized arguments: --max-iter 5\n"


class TestRefusals:
    @pytest.mark.parametrize("argv, stdin, message", [
        (["classify", "-"], "not json",
         "invalid input: malformed JSON on stdin: Expecting value: line 1 column 1 (char 0)"),
        (["family", "uniform"], None, "error: family uniform needs --atoms"),
        (["family", "hypergeometric", "--population", "10", "--successes", "3"], None,
         "error: family hypergeometric needs --population, --successes, --draws"),
        (["family", "custom"], None, "error: family custom needs --weights"),
        (["sample", "--k", "4", "--count", "5", "--jobs", "0"], None,
         "invalid input: jobs must be >= 1, got 0"),
        (["sweep", "uniform", "--atoms", "4", "--param", "atoms", "--start", "4",
          "--stop", "6", "--steps", "0"], None,
         "invalid input: grid needs at least one step, got 0"),
        (["classify", "-"], '{"weights": [1, true, 2]}', "invalid input: not a number: True"),
        (["classify", "-"], '{"weights": [1, [2], 2]}',
         "invalid input: unsupported scalar type: list"),
        (["classify", "-"], '{"weights": [0.25, 0.25, 0.25, 0.3], "normalized": true}',
         "invalid input: document claims normalized=True but the weights sum to 1.05"),
    ], ids=["stdin_json", "uniform_atoms", "hypergeometric_draws", "custom_weights",
            "jobs_zero", "sweep_steps_zero", "weight_true", "weight_list",
            "float_normalized"])
    def test_refusal_exits_one(self, capsys, monkeypatch, argv, stdin, message):
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"atomembed: {message}\n"


class TestUsage:
    def test_no_command(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert "command is required" in err

    def test_unknown_flag(self, capsys, uniform4):
        code, _, err = run(capsys, "check", uniform4, "--frobnicate")
        assert code == 1
        assert "frobnicate" in err

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "transmogrify")
        assert code == 1
        assert "invalid choice" in err

    @pytest.mark.parametrize("argv", [
        ["check", "{m}"],
        ["classify", "{m}"],
        ["sweep", "uniform", "--atoms", "4", "--param", "atoms", "--start", "4",
         "--stop", "5", "--steps", "2"],
        ["bisect", "{m}", "{m}"],
    ], ids=["check", "classify", "sweep", "bisect"])
    def test_removed_prefix_flag_is_refused(self, capsys, uniform4, argv):
        flag = "--full-set-only"
        argv = [uniform4 if a == "{m}" else a for a in argv]
        code, out, err = run(capsys, *argv, flag)
        assert code == 1 and out == ""
        assert err == f"atomembed: error: unrecognized arguments: {flag}\n"

    def test_repeated_calls_share_one_parser_and_leak_no_flag(self, capsys, tmp_path,
                                                             monkeypatch):
        from atomembed import cli

        monkeypatch.delenv("ATOMEMBED_SEED", raising=False)
        # full criterion exactly 0: exact says E in dimension 2; its doubles
        # (1/12 rounded) have a negative criterion, so float says N
        zero = write_measure(tmp_path, "zero.json", [1, 1, "1/4", "1/12"])
        assert run(capsys, "classify", zero)[0] == 0  # builds the parser

        def no_rebuild():
            raise AssertionError("the parser was built again")

        monkeypatch.setattr(cli, "build_parser", no_rebuild)
        code, out, _ = run(capsys, "classify", zero, "--float")
        assert code == 0 and json.loads(out)["witness"] == [0, 1, 2, 3]
        code, out, _ = run(capsys, "classify", zero)
        assert code == 0 and json.loads(out)["dimension"] == 2
        saved = tmp_path / "check.json"
        code, out, _ = run(capsys, "check", zero, "--out", str(saved))
        assert code == 0 and out == "" and json.loads(saved.read_text())["mode"] == "exact"
        code, out, _ = run(capsys, "check", zero)
        assert code == 0 and json.loads(out)["mode"] == "exact"
        code, out, _ = run(capsys, "det", zero, "--mode", "closed")
        assert list(json.loads(out)["values"]) == ["closed"]
        code, out, _ = run(capsys, "det", zero)
        assert list(json.loads(out)["values"]) == ["closed", "numeric", "lemma"]
        code, out, _ = run(capsys, "sample", "--k", "4", "--count", "5", "--seed", "7")
        assert json.loads(out)["seed"] == 7
        code, out, _ = run(capsys, "sample", "--k", "4", "--count", "5")
        assert json.loads(out)["seed"] == 0
