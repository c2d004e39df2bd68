import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bgpc import random_instance, serialize
from bgpc.cli import (EXIT_INPUT_ERROR, EXIT_NOT_CERTIFIED, EXIT_REFUSED,
                      build_parser, main)
from bgpc.errors import (BgpcError, BudgetExceededError, DimensionError,
                         InfeasibleConstructionError)
from bgpc.serialize import (constructed_to_dict, dump_json, load_json,
                            matrix_to_dict)


def run(*argv):
    return main(list(argv))


class TestConstructPipeline:
    def test_construct_then_verify(self, tmp_path):
        ci = tmp_path / "ci.json"
        rec = tmp_path / "rec.json"
        assert run("construct", "--n", "8", "--m", "4", "--N", "2",
                   "--out", str(ci)) == 0
        assert run("verify-construct", "--in", str(ci), "--out", str(rec)) == 0
        assert load_json(rec)["pass"] is True

    def test_failing_verification_exit_2(self, tmp_path,
                                         duplicated_column_construction):
        ci = tmp_path / "ci.json"
        rec = tmp_path / "rec.json"
        dump_json(constructed_to_dict(duplicated_column_construction), ci)
        assert run("verify-construct", "--in", str(ci),
                   "--out", str(rec)) == EXIT_NOT_CERTIFIED
        assert load_json(rec)["pass"] is False

    def test_infeasible_construct_refused(self, tmp_path):
        out = tmp_path / "ci.json"
        assert run("construct", "--n", "5", "--m", "4", "--N", "2",
                   "--out", str(out)) == 3


class TestCertifyPipeline:
    def test_below_threshold_exit_2(self, tmp_path):
        inst = tmp_path / "inst.json"
        assert run("gen", "--n", "8", "--m", "6", "--N", "2", "--seed", "1",
                   "--out", str(inst)) == 0
        rep = tmp_path / "rep.json"
        assert run("certify", "--instance", str(inst), "--out", str(rep)) == 2
        assert load_json(rep)["verdict"] == "NotCertified"

    def test_above_threshold_exit_0(self, tmp_path):
        inst = tmp_path / "inst.json"
        run("gen", "--n", "8", "--m", "4", "--N", "2", "--seed", "1",
            "--out", str(inst))
        assert run("certify", "--instance", str(inst)) == 0

    def test_certify_sparse(self, tmp_path):
        inst = tmp_path / "inst.json"
        run("gen", "--n", "16", "--m", "8", "--N", "2", "--s", "3",
            "--seed", "2", "--out", str(inst))
        rep = tmp_path / "rep.json"
        assert run("certify-sparse", "--instance", str(inst),
                   "--out", str(rep)) == 0
        d = load_json(rep)
        assert d["support_cells_checked"] == 56

    @pytest.mark.parametrize("s", ["0", "-1", "9"])
    def test_certify_sparse_sparsity_out_of_range(self, tmp_path, capsys, s):
        inst = tmp_path / "inst.json"
        run("gen", "--n", "20", "--m", "8", "--N", "2", "--s", "3",
            "--seed", "2", "--out", str(inst))
        assert run("certify-sparse", "--instance", str(inst),
                   "--s", s) == EXIT_INPUT_ERROR
        assert "requires 1 <= s <= m" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["certify-sparse", "recover-sparse"])
    def test_negative_tolerance_before_the_cell_budget(self, tmp_path, capsys,
                                                        command):
        paths = {k: str(tmp_path / f"{k}.json") for k in ("inst", "Y", "A")}
        run("gen", "--n", "20", "--m", "12", "--N", "3", "--s", "3",
            "--seed", "1", "--out", paths["inst"], "--y-out", paths["Y"],
            "--a-out", paths["A"])
        data = (["--instance", paths["inst"]] if command == "certify-sparse"
                else ["--Y", paths["Y"], "--A", paths["A"], "--s", "3"])
        assert run(command, *data, "--tol", "-1",
                   "--max-cells", "10") == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith(
            "error: tolerance must be a nonnegative real")


class TestRecoverPipeline:
    def test_end_to_end(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        Y = tmp_path / "Y.json"
        A = tmp_path / "A.json"
        run("gen", "--n", "8", "--m", "4", "--N", "2", "--seed", "1",
            "--out", str(inst), "--y-out", str(Y), "--a-out", str(A))
        out = tmp_path / "res.json"
        assert run("recover", "--Y", str(Y), "--A", str(A),
                   "--truth", str(inst), "--out", str(out)) == 0
        assert load_json(out)["status"] == "Unique"
        text = capsys.readouterr().out
        assert "relative error" in text

    @pytest.mark.parametrize("command", [["recover"], ["recover-sparse", "--s", "2"]])
    def test_truth_of_other_dimensions_is_input_error(self, tmp_path, capsys,
                                                       command):
        Y, A = tmp_path / "Y.json", tmp_path / "A.json"
        truth, out = tmp_path / "truth.json", tmp_path / "res.json"
        run("gen", "--n", "8", "--m", "4", "--N", "2", "--s", "2", "--seed", "1",
            "--out", str(tmp_path / "inst.json"), "--y-out", str(Y), "--a-out", str(A))
        run("gen", "--n", "16", "--m", "8", "--N", "2", "--seed", "1",
            "--out", str(truth))
        assert run(*command, "--Y", str(Y), "--A", str(A), "--truth", str(truth),
                   "--out", str(out)) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: truth {truth}: instance (n, m, N) (16, 8, 2) differs from "
            "(Y, A)'s (8, 4, 2)")
        assert "recovery:" not in captured.out
        assert not out.exists()

    def test_ambiguous_exit_2(self, tmp_path):
        inst = tmp_path / "inst.json"
        Y = tmp_path / "Y.json"
        A = tmp_path / "A.json"
        run("gen", "--n", "8", "--m", "6", "--N", "2", "--seed", "1",
            "--out", str(inst), "--y-out", str(Y), "--a-out", str(A))
        assert run("recover", "--Y", str(Y), "--A", str(A)) == 2

    def test_inconsistent_Y_exit_2(self, tmp_path, capsys):
        # a Y that no gamma maps into range(A) is an ambiguous verdict with
        # null dim 0, as recover-sparse reports it, not an input error
        A = tmp_path / "A.json"
        Y = tmp_path / "Y.json"
        out = tmp_path / "res.json"
        run("gen", "--n", "8", "--m", "4", "--N", "2", "--seed", "2",
            "--out", str(tmp_path / "inst.json"), "--a-out", str(A))
        dump_json(matrix_to_dict(np.random.default_rng(2).standard_normal((8, 2))), Y)
        assert run("recover", "--Y", str(Y), "--A", str(A),
                   "--out", str(out)) == EXIT_NOT_CERTIFIED
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("recovery: Ambiguous (null dim 0)\n", "")
        d = load_json(out)
        assert (d["status"], d["null_dim"]) == ("Ambiguous", 0)

    def test_negative_env_tolerance_is_input_error(self, tmp_path, monkeypatch):
        inst = tmp_path / "inst.json"
        Y = tmp_path / "Y.json"
        A = tmp_path / "A.json"
        run("gen", "--n", "8", "--m", "4", "--N", "2", "--seed", "1",
            "--out", str(inst), "--y-out", str(Y), "--a-out", str(A))
        monkeypatch.setenv("BGPC_TOL", "-1")
        assert run("recover", "--Y", str(Y), "--A", str(A)) == EXIT_INPUT_ERROR

    def test_non_numeric_env_tolerance_names_the_variable(self, tmp_path,
                                                          monkeypatch, capsys):
        inst = tmp_path / "inst.json"
        run("gen", "--n", "8", "--m", "4", "--N", "2", "--seed", "1",
            "--out", str(inst))
        monkeypatch.setenv("BGPC_TOL", "abc")
        assert run("certify", "--instance", str(inst)) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == \
            "error: BGPC_TOL must be a number, got 'abc'\n"

    def test_degenerate_gamma_not_certified(self, tmp_path,
                                            degenerate_gamma_pair):
        Ym, Am = degenerate_gamma_pair
        Y = tmp_path / "Y.json"
        A = tmp_path / "A.json"
        dump_json(matrix_to_dict(Ym), Y)
        dump_json(matrix_to_dict(Am), A)
        out = tmp_path / "res.json"
        assert run("recover", "--Y", str(Y), "--A", str(A),
                   "--out", str(out)) == EXIT_NOT_CERTIFIED
        assert load_json(out)["status"] == "DegenerateGamma"

    def test_recover_sparse(self, tmp_path):
        inst = tmp_path / "inst.json"
        Y = tmp_path / "Y.json"
        A = tmp_path / "A.json"
        run("gen", "--n", "16", "--m", "8", "--N", "2", "--s", "3",
            "--seed", "4", "--out", str(inst), "--y-out", str(Y),
            "--a-out", str(A))
        out = tmp_path / "res.json"
        assert run("recover-sparse", "--Y", str(Y), "--A", str(A),
                   "--s", "3", "--out", str(out)) == 0
        d = load_json(out)
        assert d["status"] == "Unique"
        assert d["support"] == load_json(inst)["support"]

    @pytest.mark.parametrize("s", ["0", "-1", "9"])
    def test_recover_sparse_sparsity_out_of_range(self, tmp_path, capsys, s):
        Y = tmp_path / "Y.json"
        A = tmp_path / "A.json"
        run("gen", "--n", "20", "--m", "8", "--N", "2", "--s", "3",
            "--seed", "4", "--out", str(tmp_path / "inst.json"),
            "--y-out", str(Y), "--a-out", str(A))
        assert run("recover-sparse", "--Y", str(Y), "--A", str(A),
                   "--s", s) == EXIT_INPUT_ERROR
        assert "requires 1 <= s <= m" in capsys.readouterr().err


class TestSweep:
    def config(self, tmp_path):
        cfg = {"mode": "Subspace", "n": 10, "dim_range": [3, 8],
               "N_range": [2], "trials": 3, "base_seed": 5,
               "record_timing": False}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_sweep_outputs(self, tmp_path):
        cfg = self.config(tmp_path)
        csv = tmp_path / "out.csv"
        js = tmp_path / "out.json"
        assert run("sweep", "--config", str(cfg), "--csv", str(csv),
                   "--json", str(js)) == 0
        lines = csv.read_text().strip().split("\n")
        assert lines[0].startswith("mode,n,dim,N,")
        assert len(lines) == 3
        assert len(json.loads(js.read_text())) == 2

    def test_env_tolerance_reaches_the_trials(self, tmp_path, monkeypatch):
        # an absurdly large BGPC_TOL fails every certificate of the sweep
        cfg = self.config(tmp_path)
        csv = tmp_path / "out.csv"
        monkeypatch.setenv("BGPC_TOL", "1e6")
        assert run("sweep", "--config", str(cfg), "--csv", str(csv)) == 0
        rows = [line.split(",") for line in csv.read_text().strip().split("\n")[1:]]
        assert [(r[2], r[5], r[6]) for r in rows] == [("3", "3", "0"), ("8", "3", "0")]

    @pytest.mark.parametrize("env", ["-1", "nan"])
    def test_bad_env_tolerance_refused_when_no_trial_runs(self, tmp_path,
                                                          monkeypatch, capsys,
                                                          env):
        # every cell is skipped (N < 2), so no trial would ever use the value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "Subspace", "n": 10, "dim_range": [3],
                                   "N_range": [1], "trials": 1}))
        csv = tmp_path / "out.csv"
        monkeypatch.setenv("BGPC_TOL", env)
        assert run("sweep", "--config", str(cfg), "--csv", str(csv)) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == \
            f"error: BGPC_TOL must be nonnegative, got {env!r}\n"
        assert not csv.exists()

    @pytest.mark.parametrize("in_config", [True, False])
    def test_recovery_at_cutoff_0_fails_trials_not_the_sweep(self, tmp_path,
                                                            monkeypatch,
                                                            in_config):
        # at cutoff 0, sigma_n(G) is a rounding error above 0, so no gamma
        # fits: each certified trial's recovery is Ambiguous with null dim
        # 0, a failed trial, and the sweep runs to its end
        cfg = {"mode": "Subspace", "n": 8, "dim_range": [4, 5],
               "N_range": [2, 3], "trials": 2, "check_recovery": True}
        if in_config:
            cfg["tolerance"] = 0.0
        else:
            monkeypatch.setenv("BGPC_TOL", "0")
        path, csv = tmp_path / "cfg.json", tmp_path / "out.csv"
        path.write_text(json.dumps(cfg))
        assert run("sweep", "--config", str(path), "--csv", str(csv)) == 0
        rows = [line.split(",") for line in csv.read_text().strip().split("\n")[1:]]
        assert [(r[2], r[3], r[5], r[6]) for r in rows] == [
            (dim, N, "2", "0") for dim in "45" for N in "23"]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = self.config(tmp_path)
        c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run("sweep", "--config", str(cfg), "--csv", str(c1))
        run("sweep", "--config", str(cfg), "--csv", str(c2))
        assert c1.read_bytes() == c2.read_bytes()

    def test_bad_config_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mode": "Subspace", "n": 10,
                                    "dim_range": [3], "N_range": [2],
                                    "trials": 1, "bogus": 1}))
        assert run("sweep", "--config", str(path),
                   "--csv", str(tmp_path / "o.csv")) == 1


    def test_threads_flag_accepted_and_output_unchanged(self, tmp_path):
        # the phase-sweep benchmark runs `bgpc --threads <nproc> sweep`
        cfg = self.config(tmp_path)
        plain, threaded = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("sweep", "--config", str(cfg), "--csv", str(plain)) == 0
        assert run("--threads", "2", "sweep", "--config", str(cfg),
                   "--csv", str(threaded)) == 0
        assert plain.read_bytes() == threaded.read_bytes()

    @pytest.mark.parametrize("change, message", [
        ({"trials": "5"}, "trials must be an integer"),
        ({"dim_range": 3}, "dim_range must be a nonempty list of integers"),
        ({"n": 10.5}, "n must be an integer"),
        ({"tolerance": -1e-9}, "tolerance must be a nonnegative real"),
        ({"N_range": None}, "N_range must be a nonempty list of integers"),
        ({"record_timing": "no"}, "record_timing must be true or false"),
        ({"check_recovery": 1}, "check_recovery must be true or false"),
        ({"mode": "JointSparse", "m": 8, "check_recovery": True},
         "check_recovery applies to Subspace sweeps only"),
        ({"base_seed": -1}, "base_seed must be >= 0"),
    ])
    def test_malformed_config_is_input_error(self, tmp_path, capsys,
                                             change, message):
        cfg = {"mode": "Subspace", "n": 10, "dim_range": [3],
               "N_range": [2], "trials": 1, **change}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        csv = tmp_path / "o.csv"
        assert run("sweep", "--config", str(path),
                   "--csv", str(csv)) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not csv.exists()

    @pytest.mark.parametrize("doc", ["[1, 2]", "{\"mode\": \"Subspace\"}"])
    def test_non_object_or_incomplete_config_no_traceback(self, tmp_path, doc):
        path = tmp_path / "cfg.json"
        path.write_text(doc)
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve()
                                                  .parents[1] / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "bgpc.cli", "sweep", "--config", str(path),
             "--csv", str(tmp_path / "o.csv")],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == EXIT_INPUT_ERROR
        assert proc.stderr.startswith("error: ") and "sweep config" in proc.stderr
        assert "Traceback" not in proc.stderr


# each subcommand's flags: option -> (dest, required, default, type)
CELLS = ("max_cells", False, 10 ** 6, int)
TOL_OUT = {"--tol": ("tol", False, None, float), "--out": ("out", False, None, None)}
BUILD = {"--n": ("n", True, None, int), "--m": ("m", True, None, int),
         "--N": ("N", True, None, int), "--out": ("out", True, None, None)}
DATA = {"--Y": ("Y", True, None, None), "--A": ("A", True, None, None),
        "--truth": ("truth", False, None, None)}
FLAGS = {
    "gen": {**BUILD, "--s": ("s", False, None, int),
            "--seed": ("seed", True, None, int),
            "--y-out": ("y_out", False, None, None),
            "--a-out": ("a_out", False, None, None)},
    "certify": {"--instance": ("instance", True, None, None), **TOL_OUT},
    "certify-sparse": {"--instance": ("instance", True, None, None), **TOL_OUT,
                       "--s": ("s", False, None, int), "--max-cells": CELLS},
    "construct": BUILD,
    "verify-construct": {"--in": ("input", True, None, None), **TOL_OUT},
    "recover": {**DATA, **TOL_OUT},
    "recover-sparse": {**DATA, **TOL_OUT, "--s": ("s", True, None, int),
                       "--max-cells": CELLS},
    "sweep": {"--config": ("config", True, None, None),
              "--csv": ("csv", True, None, None),
              "--json": ("json", False, None, None)},
}


def test_each_subcommand_accepts_exactly_its_flags():
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    assert set(subparsers) == set(FLAGS)
    for name, sub in subparsers.items():
        flags = {opt: (a.dest, a.required, a.default, a.type)
                 for a in sub._actions for opt in a.option_strings
                 if opt not in ("-h", "--help")}
        assert flags == FLAGS[name], name


class TestParserReuse:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_calls_in_one_process_are_fresh(self, tmp_path, monkeypatch):
        # a flag of the first call must not reach the second, and BGPC_TOL
        # is read when a command runs, not when the parser was built
        inst, Y = tmp_path / "inst.json", tmp_path / "Y.json"
        assert run("gen", "--n", "8", "--m", "4", "--N", "2", "--seed", "1",
                   "--out", str(inst), "--y-out", str(Y)) == 0
        Y.unlink()
        assert run("gen", "--n", "8", "--m", "4", "--N", "2", "--seed", "2",
                   "--out", str(inst)) == 0
        assert not Y.exists() and load_json(inst)["n"] == 8
        rep = tmp_path / "rep.json"
        assert run("certify", "--instance", str(inst), "--out", str(rep)) == 0
        assert load_json(rep)["tolerance_used"] < 1e-9
        monkeypatch.setenv("BGPC_TOL", "1e6")
        assert run("certify", "--instance", str(inst),
                   "--out", str(rep)) == EXIT_NOT_CERTIFIED
        assert load_json(rep)["tolerance_used"] == 1e6
        ci = tmp_path / "ci.json"
        assert run("construct", "--n", "8", "--m", "4", "--N", "2",
                   "--out", str(ci)) == 0
        assert run("verify-construct", "--in", str(ci)) == EXIT_NOT_CERTIFIED


class TestMalformedInstanceFiles:
    @pytest.mark.parametrize("change, message", [
        ({"n": "8"}, "instance: n must be an integer"),
        ({"N": 2.5}, "instance: N must be an integer"),
        ({"support": "abc"}, "instance: support must be a list of 1-based"),
        ({"support": [0, 2, 3]}, "instance: support must be a list of 1-based"),
        ({"A": {"rows": 1.7, "cols": 4, "data": []}}, "A: rows and cols"),
        ({"X0": {"rows": 4, "cols": 2, "data": [[None, 0]] * 8}},
         "X0: non-finite entries"),
    ])
    def test_exit_1_naming_the_field(self, tmp_path, capsys, change, message):
        inst = tmp_path / "inst.json"
        run("gen", "--n", "8", "--m", "4", "--N", "2", "--s", "3",
            "--seed", "1", "--out", str(inst))
        inst.write_text(json.dumps({**load_json(inst), **change}))
        assert run("certify-sparse", "--instance", str(inst)) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error: " + message)

    def test_constructed_instance_exit_1_naming_the_field(self, tmp_path,
                                                           capsys):
        ci = tmp_path / "ci.json"
        run("construct", "--n", "8", "--m", "4", "--N", "2", "--out", str(ci))
        ci.write_text(json.dumps({**load_json(ci), "selected_cols": [0, 1]}))
        assert run("verify-construct", "--in", str(ci)) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith(
            "error: constructed instance: selected_cols must be a list")


class TestErrors:
    def test_unknown_flag(self, capsys):
        assert run("certify", "--no-such-flag") == 1

    def test_missing_file(self, tmp_path):
        assert run("certify", "--instance", str(tmp_path / "nope.json")) == 1

    def test_budget_refusal(self, tmp_path):
        inst = tmp_path / "inst.json"
        run("gen", "--n", "16", "--m", "8", "--N", "2", "--s", "3",
            "--seed", "2", "--out", str(inst))
        assert run("certify-sparse", "--instance", str(inst),
                   "--max-cells", "5") == 3

    def test_gen_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("gen", "--n", "6", "--m", "3", "--N", "2", "--seed", "9",
            "--out", str(a))
        run("gen", "--n", "6", "--m", "3", "--N", "2", "--seed", "9",
            "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_gen_a_out_is_the_instance_record_of_A(self, tmp_path, monkeypatch):
        # A's record is built once, for the instance file, and --a-out
        # writes that same record: the bytes of a separate encoding of A
        inst, Y, A = (tmp_path / f"{k}.json" for k in ("inst", "Y", "A"))
        built = []
        monkeypatch.setattr(serialize, "matrix_to_dict",
                            lambda M: built.append(M) or matrix_to_dict(M))
        assert run("gen", "--n", "12", "--m", "5", "--N", "3", "--seed", "4",
                   "--out", str(inst), "--y-out", str(Y), "--a-out", str(A)) == 0
        assert len(built) == 4  # lambda0, X0 and A of the instance, then Y
        expected = tmp_path / "expected.json"
        dump_json(matrix_to_dict(random_instance(12, 5, 3, seed=4).A), expected)
        assert A.read_bytes() == expected.read_bytes()

    def test_key_error_in_a_handler_propagates(self, tmp_path, monkeypatch):
        # every reader names a bad field in a DimensionError, so a KeyError
        # is a fault of the program and is not reported as an input error
        def broken(path):
            raise KeyError("rows")
        monkeypatch.setattr(serialize, "load_json", broken)
        with pytest.raises(KeyError, match="rows"):
            run("certify", "--instance", str(tmp_path / "inst.json"))

    def test_every_package_error_has_its_exit_code(self, tmp_path, capsys,
                                                   monkeypatch):
        # the README's exit code for each error type the package raises; a
        # new type fails the first assert until it has a code here and a
        # handler in main, so none can leave main as a traceback
        codes = {DimensionError: EXIT_INPUT_ERROR,
                 InfeasibleConstructionError: EXIT_REFUSED,
                 BudgetExceededError: EXIT_REFUSED}

        def subclasses(cls):
            return {c for sub in cls.__subclasses__() for c in (sub, *subclasses(sub))}

        assert subclasses(BgpcError) == set(codes)
        for error, code in codes.items():
            def raising(path, error=error):
                raise error("raised in the handler")
            monkeypatch.setattr(serialize, "load_json", raising)
            assert run("certify", "--instance", str(tmp_path / "i.json")) == code
            assert capsys.readouterr().err == "error: raised in the handler\n"

    def test_negative_tolerance_in_verify_construct(self, tmp_path, capsys,
                                                    svd_calls):
        ci = tmp_path / "ci.json"
        assert run("construct", "--n", "16", "--m", "12", "--N", "4",
                   "--out", str(ci)) == 0
        capsys.readouterr()
        assert run("verify-construct", "--in", str(ci),
                   "--tol", "-1") == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == (
            "error: tolerance must be a nonnegative real, got -1.0\n")
        assert svd_calls == []

    @pytest.mark.parametrize("env, flag, code, rank", [
        ("1e6", None, 2, 0),  # absurdly large tolerance kills the rank condition
        (None, "1e6", 2, 0),
        ("1e6", "1e-9", 0, 8),  # --tol wins over BGPC_TOL
        ("1e-9", "1e6", 2, 0),
    ])
    def test_tolerance_flag_and_env(self, tmp_path, monkeypatch, env, flag,
                                    code, rank):
        inst = tmp_path / "inst.json"
        run("gen", "--n", "8", "--m", "4", "--N", "2", "--seed", "1",
            "--out", str(inst))
        if env is not None:
            monkeypatch.setenv("BGPC_TOL", env)
        rep = tmp_path / "rep.json"
        tol = [] if flag is None else ["--tol", flag]
        assert run("certify", "--instance", str(inst), *tol, "--out", str(rep)) == code
        d = load_json(rep)
        assert (d["stacked_rank"], d["tolerance_used"]) == (rank, float(flag or env))


def readme_blocks(lang):
    """The fenced ``lang`` blocks of the README's "Command line" section."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{lang}\n(.*?)```", section, re.S)


def test_readme_command_block_runs(tmp_path, monkeypatch):
    # every line of the README's command-line block exits 0 as written,
    # with the README's sweep config at fewer trials
    (commands,), (config,) = readme_blocks("sh"), readme_blocks("json")
    cfg = json.loads(config)
    cfg["trials"] = 1
    (tmp_path / "sweep.json").write_text(json.dumps(cfg))
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BGPC_TOL", raising=False)
    lines = [shlex.split(line) for line in commands.splitlines() if line.strip()]
    assert len(lines) == 9
    for argv in lines:
        assert argv[0] == "bgpc"
        assert main(argv[1:]) == 0, argv
    assert (tmp_path / "out.csv").read_text().count("\n") == 1 + 11 * 7
