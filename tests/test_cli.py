import csv
import json
import math
import warnings
from fractions import Fraction

import pytest

from atomembed import DegenerateWeightWarning
from atomembed.cli import main
from atomembed.scalars import scalar_to_json

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

    def test_indeterminate_exit_code(self, capsys, tmp_path):
        t = 3.0 + 2.0 * math.sqrt(3.0)
        path = write_measure(tmp_path, "b.json", [1.0, 1.0, 1.0, 1.0 / t])
        code, out, _ = run(capsys, "classify", path)
        assert code == 2
        assert json.loads(out)["verdict"] == "indeterminate"

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "check", str(path))
        assert code == 1
        assert "malformed JSON" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent/measure.json")
        assert code == 1
        assert "no such file" in err

    def test_inconsistent_normalized_flag(self, capsys, tmp_path):
        path = write_measure(tmp_path, "n.json", [1, 1], normalized=True)
        code, _, err = run(capsys, "check", path)
        assert code == 1
        assert "normalized" in err


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

    @pytest.mark.parametrize("tiny", [1e-300, 5e-324])
    def test_overflowing_criterion_is_indeterminate(self, capsys, tmp_path, tiny):
        # the reciprocal sums overflow and the float criterion is inf - inf;
        # the true value 3 + 6Z - Z^2 (Z = 1/tiny) is negative
        path = write_measure(tmp_path, "t.json", [1.0, 1.0, 1.0, tiny])
        with pytest.warns(DegenerateWeightWarning):
            code, out, _ = run(capsys, "classify", path)
        assert code == 2
        assert json.loads(out)["verdict"] == "indeterminate"

    @pytest.mark.parametrize("tiny", [1e-300, 5e-324])
    def test_det_underflow_exits_one(self, capsys, tmp_path, tiny):
        path = write_measure(tmp_path, "t.json", [1.0, 1.0, 1.0, tiny])
        with pytest.warns(DegenerateWeightWarning):
            code, out, err = run(capsys, "det", path)
        assert code == 1
        assert out == ""
        assert err.startswith("atomembed: invalid input: the rank-one route "
                              "underflows in double precision")
        assert "Traceback" not in err


    @pytest.mark.parametrize("command", ["det", "embed"])
    def test_overflowing_triple_product_exits_one(self, capsys, tmp_path, command):
        # (1 + 1e200)^2 does not fit a double
        path = write_measure(tmp_path, "h.json", [1.0, 1.0, 1.0, 1e200])
        code, out, err = run(capsys, command, path)
        assert code == 1
        assert out == ""
        assert err == {
            "det": "atomembed: invalid input: triple product entry (1, 3) over base 0 "
                   "overflows in double precision; supply rational weights\n",
            "embed": "atomembed: invalid input: the embedding coordinates or their "
                     "squares are beyond double range\n",
        }[command]

    @pytest.mark.parametrize("weights, argv, code, key", [
        ([1.0, 1.0, 1.0, 1e-300], ["check"], 2, ("subset_values", "0,1,2,3")),
        ([1.0, 1.0, 1.0, 1e-300], ["det", "--mode", "closed"], 2, ("criterion",)),
        ([1.0, 1.0, 1.0, 1e200], ["det", "--mode", "closed"], 0, ("values", "closed")),
    ])
    def test_non_finite_value_prints_null(self, capsys, tmp_path, weights, argv,
                                          code, key):
        def refuse(token):
            raise AssertionError(f"{token} is not JSON")

        path = write_measure(tmp_path, "m.json", weights)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateWeightWarning)
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

    def test_boundary_float_exits_two(self, capsys, tmp_path):
        t = 3.0 + 2.0 * math.sqrt(3.0)
        path = write_measure(tmp_path, "b.json", [1.0, 1.0, 1.0, 1.0 / t])
        code, out, _ = run(capsys, "det", path)
        assert code == 2
        assert json.loads(out)["sign"] == "boundary"

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

    @pytest.mark.parametrize("weights", [[1e-300] * 3, ["1/" + "1" + "0" * 210] * 3])
    def test_squares_below_double_range_exit_one(self, capsys, tmp_path, weights):
        # embeddable at any scale, but x^2 is below the smallest normal double
        path = write_measure(tmp_path, "t.json", weights)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateWeightWarning)
            code, out, err = run(capsys, "embed", path)
        assert (code, out) == (1, "")
        assert err == ("atomembed: invalid input: the embedding coordinates or their "
                       "squares are beyond double range\n")

    @pytest.mark.parametrize("weights, dim", [
        ([1, 1, 1, 10**12], 3),
        ([3, 3, 3, 3, 3, 10**8], 5),
        ([10**12, 1, 1, 1], 3),
        ([1, 1, 1, 1, 10**12, 10**24], 5),
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

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_tolerance_must_be_finite_and_positive(self, capsys, uniform4, tol):
        # a NaN or infinite tolerance used to switch the residual check off
        code, out, err = run(capsys, "embed", uniform4, "--tol", tol)
        assert code == 1 and out == ""
        assert err == (f"atomembed: invalid input: isometry tolerance must be finite "
                       f"and positive, got {float(tol)}\n")


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
        assert set(verdicts) <= {"E", "N", "I"}
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

    def test_bad_count(self, capsys):
        code, _, err = run(capsys, "sample", "--k", "4", "--count", "0")
        assert code == 1
        assert "count" in err


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
        ("--max-iter", "iteration limit must be nonnegative, got -1"),
        ("--scan", "scan steps must be nonnegative, got -1"),
    ])
    def test_negative_counts_are_refused(self, capsys, tmp_path, binom5, flag, message):
        # -1 iterations used to fail as an unreached tolerance; a negative
        # scan used to run as no scan at all
        u6 = write_measure(tmp_path, "u6.json", ["1/6"] * 6)
        code, out, err = run(capsys, "bisect", u6, binom5, flag, "-1")
        assert code == 1 and out == ""
        assert err == f"atomembed: invalid input: {message}\n"

    def test_zero_counts_keep_their_meaning(self, capsys, tmp_path, binom5):
        u6 = write_measure(tmp_path, "u6.json", ["1/6"] * 6)
        code, out, err = run(capsys, "bisect", u6, binom5, "--max-iter", "0")
        assert code == 1 and out == ""
        assert err == ("atomembed: invalid input: bracket width 1.0 still above "
                       "tol=1e-06 after 0 iterations\n")
        assert run(capsys, "bisect", u6, binom5, "--scan", "0") == run(capsys, "bisect",
                                                                     u6, binom5)


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
        # full criterion exactly 0: exact says E in dimension 2, float says I
        zero = write_measure(tmp_path, "zero.json", [1, 1, "1/4", "1/12"])
        assert run(capsys, "classify", zero)[0] == 0  # builds the parser

        def no_rebuild():
            raise AssertionError("the parser was built again")

        monkeypatch.setattr(cli, "build_parser", no_rebuild)
        code, out, _ = run(capsys, "classify", zero, "--float")
        assert code == 2 and json.loads(out)["verdict"] == "indeterminate"
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
