import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bvcm
from bvcm import fileio
from bvcm.cli import main
from bvcm.core import BlockAssignment, InteractionNetwork
from bvcm.gibbs import Chain
from bvcm.errors import DataError
from bvcm.metrics import PosteriorMembership, standardized_l2


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture
def sim_files(tmp_path):
    out = tmp_path / "net.jsonl"
    code = run_cli(
        "simulate", "--k", 2, "--alpha", "0.5,0.5", "--theta", "5,5",
        "--prop-diag", "0.9", "--m", 400, "--seed", 7, "--out", out,
    )
    assert code == 0
    return out, out.with_name("net_truth.csv")


class TestSimulate:
    def test_writes_expected_files(self, sim_files):
        out, truth = sim_files
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 400
        rec = json.loads(lines[0])
        assert set(rec) == {"sender", "receivers"}
        assert truth.exists()
        manifest = json.loads(out.with_name("net_manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["mode"] == "conditional_iid"
        assert manifest["realized_propensity"][0][0] == pytest.approx(0.9)

    def test_reruns_are_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            run_cli(
                "simulate", "--k", 2, "--alpha", "0.5,0.5", "--theta", "5,5",
                "--prop-diag", "0.9", "--m", 100, "--seed", 3, "--out", out,
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_negative_theta(self, tmp_path):
        # theta > -alpha is allowed; the urn's first draw in a block must
        # then create a node rather than pick from an empty block.
        for mode in ("sequential", "conditional_iid"):
            out = tmp_path / f"neg_{mode}.jsonl"
            code = run_cli(
                "simulate", "--k", 2, "--alpha", "0.5,0.5", "--theta=-0.2,-0.2",
                "--m", 50, "--seed", 1, "--mode", mode, "--out", out,
            )
            assert code == 0, mode
            net = fileio.read_interactions_jsonl(out)
            truth = fileio.read_assignment_csv(out.with_name(f"neg_{mode}_truth.csv"), net, k=2)
            assert net.m == 50
            assert len(truth.labels) == net.n_nodes

    def test_empty_network(self, tmp_path):
        out = tmp_path / "empty.jsonl"
        assert run_cli(
            "simulate", "--k", 1, "--alpha", "0.5", "--theta", "1",
            "--m", 0, "--out", out,
        ) == 0
        assert out.read_text() == ""
        assert out.with_name("empty_manifest.json").exists()

    @pytest.mark.parametrize("k, alpha, theta, message", [
        pytest.param(2, "0.5", "5,5", "--alpha/--theta need 2 entries", id="mismatch"),
        pytest.param(0, "", "", "--k must be >= 1", id="k0"),
    ])
    def test_vector_length_mismatch_is_usage_error(
        self, tmp_path, capsys, k, alpha, theta, message
    ):
        code = run_cli(
            "simulate", "--k", k, "--alpha", alpha, "--theta", theta,
            "--m", 10, "--out", tmp_path / "x.jsonl",
        )
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--prop-diag", "1.5"),
        ("--omega", "0"),
        ("--zeta", "-1"),
        ("--alpha", "1.5,0.5"),
        ("--theta", "-0.6,5"),
        # NaN fails every domain check (the NaN discount is tested below).
        ("--theta", "nan,1"),
        ("--omega", "nan"),
        ("--zeta", "nan"),
        ("--prop-diag", "nan"),
    ])
    def test_bad_flag_value_is_usage_error_naming_it(self, tmp_path, capsys, flag, value):
        code = run_cli(
            "simulate", "--k", 2, "--alpha", "0.5,0.5", "--theta", "5,5",
            "--m", 10, "--out", tmp_path / "x.jsonl", f"{flag}={value}",
        )
        assert code == 2
        assert f"error: {flag}: " in capsys.readouterr().err

    def test_nan_alpha_is_usage_error_not_a_hang(self, tmp_path):
        """A NaN discount once sent the urn's rejection loop round forever,
        so this runs in a child process under a timeout."""
        src = str(Path(bvcm.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "bvcm.cli", "simulate", "--k", "2", "--alpha", "nan,0.5",
             "--theta", "1,1", "--m", "50", "--out", str(tmp_path / "x.jsonl")],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert "error: --alpha: " in proc.stderr

    @pytest.mark.parametrize("arity", ["abc", "1e0", "0.5,abc", "nan,1", "0"])
    def test_bad_arity_is_usage_error_naming_it(self, tmp_path, capsys, arity):
        args = ("simulate", "--k", 1, "--alpha", "0.5", "--theta", "2", "--m", 10,
                "--out", tmp_path / "x.jsonl")
        assert run_cli(*args, f"--arity={arity}") == 2
        assert "error: --arity: " in capsys.readouterr().err
        cfg = tmp_path / "bvcm.ini"
        cfg.write_text(f"[simulate]\narity = {arity}\n")
        assert run_cli(*args, "--config", cfg) == 2
        assert "error: --arity: " in capsys.readouterr().err
        assert not (tmp_path / "x.jsonl").exists()

    def test_fixed_propensity_needs_conditional_mode(self, tmp_path):
        code = run_cli(
            "simulate", "--k", 2, "--alpha", "0.5,0.5", "--theta", "5,5",
            "--prop-diag", "0.9", "--mode", "sequential",
            "--m", 10, "--out", tmp_path / "x.jsonl",
        )
        assert code == 2

    def test_prop_file_fixes_the_mixing_matrix(self, tmp_path, capsys):
        prop = tmp_path / "prop.csv"
        prop.write_text("0.7,0.3\n0.2,0.8\n")
        out = tmp_path / "p.jsonl"
        args = ("simulate", "--k", 2, "--alpha", "0.5,0.5", "--theta", "5,5",
                "--m", 50, "--seed", 2)
        assert run_cli(*args, "--prop-file", prop, "--out", out) == 0
        manifest = json.loads(out.with_name("p_manifest.json").read_text())
        assert manifest["mode"] == "conditional_iid"
        assert manifest["realized_propensity"] == [[0.7, 0.3], [0.2, 0.8]]
        for text, where in [("0.7,0.3\n", "2x2 matrix"), ("0.7,0.3,0\n0.2,0.8,0\n", "line 1"),
                            ("0.7,0.3\n0.2,x\n", "line 2"), ("0.7,0.4\n0.2,0.8\n", "simplex"),
                            ("0.7,0.3\nnan,0.8\n", "simplex")]:
            prop.write_text(text)
            assert run_cli(*args, "--prop-file", prop, "--out", out) == 3, text
            err = capsys.readouterr().err
            assert str(prop) in err and where in err, text

    def test_no_temp_files_left(self, sim_files):
        out, _ = sim_files
        leftovers = [p for p in out.parent.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []


class TestFit:
    def test_single_iteration_chain(self, sim_files, tmp_path):
        out, _ = sim_files
        chain_dir = tmp_path / "chain1"
        code = run_cli(
            "fit", "--input", out, "--k", 2, "--iters", 1, "--burnin", 0,
            "--seed", 1, "--out", chain_dir,
        )
        assert code == 0
        rows = (chain_dir / "chain.csv").read_text().strip().splitlines()
        assert len(rows) == 2  # header + one iteration

    def test_equal_seeds_identical_outputs(self, sim_files, tmp_path):
        out, _ = sim_files
        blobs = []
        for name in ("c1", "c2"):
            chain_dir = tmp_path / name
            run_cli(
                "fit", "--input", out, "--k", 2, "--iters", 10, "--burnin", 2,
                "--seed", 5, "--out", chain_dir,
            )
            blobs.append(
                (chain_dir / "chain.csv").read_bytes()
                + (chain_dir / "assignments.csv").read_bytes()
            )
        assert blobs[0] == blobs[1]

    def test_round_trip(self, sim_files, tmp_path):
        out, _ = sim_files
        chain_dir = tmp_path / "chain_rt"
        run_cli(
            "fit", "--input", out, "--k", 2, "--iters", 8, "--burnin", 2,
            "--seed", 2, "--out", chain_dir,
        )
        chain = fileio.read_chain(chain_dir)
        assert len(chain) == 8
        assert chain.burn_in == 2
        assert chain.k == 2
        assert np.isfinite(chain.log_probs).all()

    def test_warm_init_runs(self, sim_files, tmp_path):
        out, _ = sim_files
        code = run_cli(
            "fit", "--input", out, "--k", 2, "--iters", 5, "--burnin", 1,
            "--init", "warm", "--out", tmp_path / "warm",
        )
        assert code == 0

    @pytest.mark.parametrize("flag, value", [
        ("--omega", "nan"),
        ("--zeta", "nan"),
        ("--alpha-prior", "nan,1"),
        ("--theta-prior", "1,nan"),
    ])
    def test_nan_flag_value_is_usage_error_naming_it(
        self, sim_files, tmp_path, capsys, flag, value
    ):
        out, _ = sim_files
        for command in (("fit", "--k", 2), ("select-k", "--kmin", 1, "--kmax", 2)):
            code = run_cli(
                *command, "--input", out, "--iters", 3, "--burnin", 1,
                "--out", tmp_path / "chain", f"{flag}={value}",
            )
            assert code == 2, command
            assert f"error: {flag}: " in capsys.readouterr().err, command
        assert not (tmp_path / "chain").exists()


class TestSelectK:
    def test_single_k(self, sim_files, tmp_path):
        out, _ = sim_files
        sel = tmp_path / "sel"
        code = run_cli(
            "select-k", "--input", out, "--kmin", 2, "--kmax", 2,
            "--iters", 5, "--burnin", 1, "--replicates", 2, "--seed", 1,
            "--out", sel,
        )
        assert code == 0
        scores = (sel / "scores.csv").read_text().strip().splitlines()
        assert scores[0] == "k,replicate,score"
        assert len(scores) == 3
        summary = (sel / "summary.csv").read_text().strip().splitlines()
        assert summary[1:] == ["0,2", "1,2"]

    def test_bad_grid(self, sim_files, tmp_path):
        out, _ = sim_files
        assert run_cli(
            "select-k", "--input", out, "--kmin", 4, "--kmax", 2,
            "--iters", 5, "--burnin", 1, "--out", tmp_path / "x",
        ) == 2

    def test_honors_thread_cap(self, sim_files, tmp_path, monkeypatch):
        monkeypatch.setenv("BVCM_THREADS", "1")
        out, _ = sim_files
        assert run_cli(
            "select-k", "--input", out, "--kmin", 2, "--kmax", 3,
            "--iters", 4, "--burnin", 1, "--out", tmp_path / "t",
        ) == 0


    def test_non_integer_thread_cap_is_usage_error(self, sim_files, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BVCM_THREADS", "two")
        out, _ = sim_files
        assert run_cli(
            "select-k", "--input", out, "--kmin", 2, "--kmax", 3,
            "--iters", 4, "--burnin", 1, "--out", tmp_path / "t",
        ) == 2
        assert "BVCM_THREADS must be an integer, got 'two'" in capsys.readouterr().err


class TestEval:
    def test_metric_files(self, sim_files, tmp_path):
        out, truth = sim_files
        chain_dir = tmp_path / "chain_eval"
        run_cli(
            "fit", "--input", out, "--k", 2, "--iters", 60, "--burnin", 20,
            "--seed", 3, "--out", chain_dir,
        )
        ev = tmp_path / "metrics"
        code = run_cli(
            "eval", "--input", out, "--chain", chain_dir, "--truth", truth,
            "--out", ev,
        )
        assert code == 0
        assert (ev / "l2.csv").read_text().splitlines()[0] == "l2"
        assert (ev / "cross_entropy.csv").read_text().splitlines()[0] == "total,per_node"
        mis = (ev / "misclassification.csv").read_text().splitlines()
        assert mis[0] == "cutoff,n_nodes,rate"
        assert len(mis) == 3  # cutoffs 1 and log m

    def test_default_cutoffs_on_a_two_interaction_network(self, tmp_path):
        """log m < 1 when m = 2, so the default cutoffs are 0.69 and 1."""
        out = tmp_path / "tiny.jsonl"
        assert run_cli(
            "simulate", "--k", 2, "--alpha", "0.5,0.5", "--theta", "1,1", "--m", 2,
            "--seed", 1, "--out", out,
        ) == 0
        chain_dir = tmp_path / "chain"
        assert run_cli(
            "fit", "--input", out, "--k", 2, "--iters", 3, "--burnin", 1, "--out", chain_dir,
        ) == 0
        ev = tmp_path / "metrics"
        assert run_cli(
            "eval", "--input", out, "--chain", chain_dir,
            "--truth", out.with_name("tiny_truth.csv"), "--out", ev,
        ) == 0
        rows = (ev / "misclassification.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [f"{np.log(2):.10g}", "1"]

    def test_hellinger_needs_second_chain(self, sim_files, tmp_path):
        out, truth = sim_files
        chain_dir = tmp_path / "c_h"
        run_cli(
            "fit", "--input", out, "--k", 2, "--iters", 10, "--burnin", 2,
            "--seed", 4, "--out", chain_dir,
        )
        code = run_cli(
            "eval", "--input", out, "--chain", chain_dir, "--truth", truth,
            "--metrics", "hellinger", "--out", tmp_path / "hx",
        )
        assert code == 2
        code = run_cli(
            "eval", "--input", out, "--chain", chain_dir, "--chain-b", chain_dir,
            "--metrics", "hellinger", "--out", tmp_path / "h",
        )
        assert code == 0
        val = float((tmp_path / "h" / "hellinger.csv").read_text().splitlines()[1])
        assert val == pytest.approx(0.0)

    def test_network_must_be_the_one_the_chain_was_fitted_on(
        self, sim_files, tmp_path, capsys
    ):
        """Chain column j is scored as network node j, so a network with
        the same nodes in another order is a data error, and a copy of the
        fitted network gives the metric bytes of the original."""
        out, truth = sim_files
        chain_dir = tmp_path / "c_n"
        run_cli(
            "fit", "--input", out, "--k", 2, "--iters", 30, "--burnin", 10,
            "--seed", 5, "--out", chain_dir,
        )
        lines = out.read_text().splitlines(keepends=True)
        copy = tmp_path / "copy.jsonl"
        copy.write_text("".join(lines))
        shuffled = tmp_path / "shuffled.jsonl"
        shuffled.write_text("".join(lines[::-1]))

        outputs = {}
        for net in (out, copy):
            ev = tmp_path / f"m_{net.stem}"
            assert run_cli(
                "eval", "--input", net, "--chain", chain_dir, "--truth", truth,
                "--out", ev,
            ) == 0
            outputs[net] = {f.name: f.read_bytes() for f in ev.glob("*.csv")}
        assert set(outputs[out]) == {"l2.csv", "cross_entropy.csv", "misclassification.csv"}
        assert outputs[copy] == outputs[out]
        network = fileio.read_interactions_jsonl(out)
        l2 = standardized_l2(
            PosteriorMembership.from_chain(fileio.read_chain(chain_dir)),
            fileio.read_assignment_csv(truth, network),
        )
        assert outputs[out]["l2.csv"] == f"l2\r\n{l2:.10g}\r\n".encode()

        capsys.readouterr()
        assert run_cli(
            "eval", "--input", shuffled, "--chain", chain_dir, "--truth", truth,
            "--out", tmp_path / "m_shuffled",
        ) == 3
        err = capsys.readouterr().err
        assert "assignments.csv: column " in err
        assert "must be the network the chain was fitted on" in err

    def test_unknown_metric(self, sim_files, tmp_path):
        out, truth = sim_files
        chain_dir = tmp_path / "c_u"
        run_cli(
            "fit", "--input", out, "--k", 2, "--iters", 4, "--burnin", 1,
            "--seed", 4, "--out", chain_dir,
        )
        assert run_cli(
            "eval", "--input", out, "--chain", chain_dir, "--truth", truth,
            "--metrics", "nmi", "--out", tmp_path / "x",
        ) == 2


class TestBoundAndStats:
    def test_bound(self, tmp_path, capsys):
        out = tmp_path / "bound.csv"
        code = run_cli(
            "bound", "--alpha", 0.5, "--a", 0.9, "--gamma1", 0.9, "--gamma2", 0.9,
            "--out", out,
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "mu_min=0.64" in printed
        header, row = out.read_text().strip().splitlines()
        assert header == "mu_min,p_out"
        assert float(row.split(",")[0]) == pytest.approx(0.64)

    def test_bound_domain_error_exit_code(self):
        assert run_cli(
            "bound", "--alpha", 0.5, "--a", 0.55, "--gamma1", 0.51, "--gamma2", 1.0
        ) == 4

    def test_bound_rejects_bad_tol(self, capsys):
        for tol in ("0", "-1e-10", "nan", "inf"):
            assert run_cli(
                "bound", "--alpha", 0.5, "--a", 0.9, "--gamma1", 0.9, "--gamma2", 0.9,
                f"--tol={tol}",
            ) == 2, tol
            assert "tol" in capsys.readouterr().err

    def test_stats(self, sim_files, tmp_path):
        out, truth = sim_files
        st = tmp_path / "stats"
        code = run_cli(
            "stats", "--input", out, "--truth", truth,
            "--checkpoints", "4,40,200,400", "--out", st,
        )
        assert code == 0
        header, *rows = (st / "degree_distribution.csv").read_text().splitlines()
        assert header == "degree,count"
        degrees = [int(r.split(",")[0]) for r in rows]
        counts = [int(r.split(",")[1]) for r in rows]
        assert degrees == sorted(set(degrees)) and degrees[0] >= 1
        assert min(counts) >= 1
        assert sum(counts) == fileio.read_interactions_jsonl(out).n_nodes
        pl = (st / "powerlaw.csv").read_text().splitlines()
        assert pl[0].startswith("block,n_nodes")
        assert (st / "sparsity.csv").exists()


class TestErrorsAndConfig:
    def test_malformed_jsonl_names_line(self, tmp_path, capsys):
        good = '{"sender": "a", "receivers": ["b"]}\n'
        cases = [
            (good + "not json\n", "line 2"),
            (good + '{"sender": null, "receivers": ["a"]}\n', "line 2"),
            (good + '{"sender": "a", "receivers": [null]}\n', "line 2"),
            (good + '\n{"sender": "", "receivers": ["b"]}\n', "line 3"),
            # Identifiers must be strings or integers: no lists, objects,
            # booleans or floats.
            (good + '{"sender": "a", "receivers": [["b"]]}\n', "line 2"),
            (good + '{"sender": "a", "receivers": ["b", {"c": 1}]}\n', "line 2"),
            (good + '{"sender": true, "receivers": ["a"]}\n', "line 2"),
            (good + '{"sender": "a", "receivers": [1.5]}\n', "line 2"),
            (good + '{"sender": ["a"], "receivers": ["b"]}\n', "line 2"),
            (good + '{"sender": "a", "receivers": []}\n', "line 2"),
            (good + '{"sender": "a", "receivers": "b"}\n', "line 2"),
        ]
        for text, where in cases:
            bad = tmp_path / "bad.jsonl"
            bad.write_text(text)
            code = run_cli(
                "fit", "--input", bad, "--k", 2, "--iters", 2, "--burnin", 0,
                "--out", tmp_path / "c",
            )
            assert code == 3, text
            assert where in capsys.readouterr().err, text

    def test_truth_missing_node(self, sim_files, tmp_path):
        out, _ = sim_files
        bad_truth = tmp_path / "bad_truth.csv"
        bad_truth.write_text("node,block\nn1,1\n")
        chain_dir = tmp_path / "c_t"
        run_cli(
            "fit", "--input", out, "--k", 2, "--iters", 4, "--burnin", 1,
            "--out", chain_dir,
        )
        assert run_cli(
            "eval", "--input", out, "--chain", chain_dir, "--truth", bad_truth,
            "--out", tmp_path / "m",
        ) == 3

    @pytest.mark.parametrize("node, value", [
        # The overflow cases keep their original ids: [n1], [not-a-node].
        pytest.param(node, value, id=node if len(value) == 20 else f"{node}-{value}")
        for value in ("99999999999999999999", "9999999999", "2000", "0", "3")
        for node in ("n1", "not-a-node")
    ])
    def test_truth_block_outside_int64_is_data_error(
        self, sim_files, tmp_path, capsys, node, value
    ):
        # A row of a known node and a row of an unknown one alike.  Blocks
        # run 1..k: eval passes the chain's k = 2, and stats defaults k to
        # the largest block, which may not exceed the node count.
        out, truth = sim_files
        bad_truth = tmp_path / "bad_truth.csv"
        bad_truth.write_text(truth.read_text() + f"{node},{value}\n")
        line = len(truth.read_text().splitlines()) + 1
        chain_dir = tmp_path / "c"
        run_cli(
            "fit", "--input", out, "--k", 2, "--iters", 3, "--burnin", 1,
            "--out", chain_dir,
        )
        argvs = [["eval", "--input", out, "--chain", chain_dir, "--truth", bad_truth,
                  "--out", tmp_path / "m"]]
        if value != "3":  # a valid defaulted k for stats
            argvs.append(["stats", "--input", out, "--truth", bad_truth, "--out", tmp_path / "s"])
        if int(value).bit_length() > 63:
            expected = f"bad_truth.csv: line {line}: bad block value '{value}'"
        elif value == "3":
            expected = f"bad_truth.csv: line {line}: block 3 outside 1..2\n"
        else:
            expected = f"bad_truth.csv: line {line}: block {value} outside 1.."
        for argv in argvs:
            assert run_cli(*argv) == 3, argv[0]
            err = capsys.readouterr().err
            assert expected in err
        assert not (tmp_path / "s").exists()

    def test_malformed_assignments_csv_is_data_error(self, sim_files, tmp_path, capsys):
        out, truth = sim_files
        chain_dir = tmp_path / "c_a"
        run_cli(
            "fit", "--input", out, "--k", 2, "--iters", 3, "--burnin", 1,
            "--out", chain_dir,
        )
        path = chain_dir / "assignments.csv"
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",x"
        path.write_text("\n".join(lines) + "\n")
        code = run_cli(
            "eval", "--input", out, "--chain", chain_dir, "--truth", truth,
            "--out", tmp_path / "m",
        )
        assert code == 3
        assert "assignments.csv: line 3" in capsys.readouterr().err

    def test_malformed_chain_csv_is_data_error(self, sim_files, tmp_path, capsys):
        out, truth = sim_files
        chain_dir = tmp_path / "c_c"
        run_cli(
            "fit", "--input", out, "--k", 2, "--iters", 3, "--burnin", 1,
            "--out", chain_dir,
        )
        path = chain_dir / "chain.csv"
        lines = path.read_text().splitlines()
        lines[3] = lines[3].replace(",", ",1.5e,", 1)
        path.write_text("\n".join(lines) + "\n")
        code = run_cli(
            "eval", "--input", out, "--chain", chain_dir, "--truth", truth,
            "--out", tmp_path / "m",
        )
        assert code == 3
        assert "chain.csv: line 4" in capsys.readouterr().err

    def test_non_utf8_inputs_are_data_errors(self, sim_files, tmp_path, capsys):
        out, truth = sim_files
        chain_dir = tmp_path / "c_u"
        assert run_cli("fit", "--input", out, "--k", 2, "--iters", 3, "--burnin", 1,
                       "--out", chain_dir) == 0
        bad_jsonl = tmp_path / "bad.jsonl"
        lines = out.read_bytes().splitlines(keepends=True)
        lines[4] = lines[4].replace(b'"', b'"\xff', 1)
        bad_jsonl.write_bytes(b"".join(lines))
        bad_truth = tmp_path / "bad_truth.csv"
        rows = truth.read_bytes().splitlines(keepends=True)
        rows[3] = b"\xe9" + rows[3]
        bad_truth.write_bytes(b"".join(rows))
        runs = [
            ("stats", "--input", bad_jsonl, "--out", tmp_path / "s"),
            ("fit", "--input", bad_jsonl, "--k", 2, "--iters", 2, "--burnin", 0,
             "--out", tmp_path / "f"),
            ("eval", "--input", bad_jsonl, "--chain", chain_dir, "--truth", truth,
             "--out", tmp_path / "e"),
        ]
        for cmd in runs:
            assert run_cli(*cmd) == 3, cmd[0]
            assert f"{bad_jsonl}: line 5: not UTF-8" in capsys.readouterr().err, cmd[0]
        code = run_cli("stats", "--input", out, "--truth", bad_truth, "--out", tmp_path / "s")
        assert code == 3
        assert f"{bad_truth}: line 4: not UTF-8" in capsys.readouterr().err

    def test_broken_chain_manifest_is_data_error(self, sim_files, tmp_path, capsys):
        out, truth = sim_files
        chain_dir = tmp_path / "c_m"
        assert run_cli("fit", "--input", out, "--k", 2, "--iters", 3, "--burnin", 1,
                       "--out", chain_dir) == 0
        path = chain_dir / "chain_manifest.json"
        meta = json.loads(path.read_text())
        cases = [
            # Cut after three lines: the JSON ends where line 4 begins.
            ("".join(path.read_text().splitlines(keepends=True)[:3]), "line 4: malformed JSON"),
            (json.dumps({k: v for k, v in meta.items() if k != "burn_in"}), "missing field 'burn_in'"),
            (json.dumps({**meta, "burn_in": -2}), "field burn_in = -2 outside 0..2"),
            (json.dumps({**meta, "burn_in": 3}), "field burn_in = 3 outside 0..2"),
        ]
        for text, where in cases:
            path.write_text(text)
            code = run_cli("eval", "--input", out, "--chain", chain_dir, "--truth", truth,
                           "--out", tmp_path / "m")
            assert code == 3, where
            assert f"{path}: {where}" in capsys.readouterr().err

    def test_missing_path_exits_2_and_names_it(self, sim_files, tmp_path, capsys):
        out, truth = sim_files
        code = run_cli("stats", "--input", tmp_path / "nope.jsonl", "--out", tmp_path / "s")
        assert code == 2
        assert "nope.jsonl" in capsys.readouterr().err
        code = run_cli(
            "eval", "--input", out, "--chain", tmp_path / "nochain",
            "--truth", truth, "--out", tmp_path / "e",
        )
        assert code == 2
        assert "nochain" in capsys.readouterr().err

    def test_config_file_defaults_and_override(self, tmp_path):
        cfg = tmp_path / "bvcm.ini"
        cfg.write_text("[simulate]\narity = 3\nseed = 9\n")
        out = tmp_path / "cfg.jsonl"
        code = run_cli(
            "simulate", "--config", cfg, "--k", 1, "--alpha", "0.5",
            "--theta", "2", "--m", 30, "--arity", 1, "--out", out,
        )
        assert code == 0
        # explicit --arity wins over the config value; seed comes from config
        lines = out.read_text().strip().splitlines()
        assert [len(json.loads(line)["receivers"]) for line in lines] == [1] * 30
        manifest = json.loads(out.with_name("cfg_manifest.json").read_text())
        assert manifest["seed"] == 9
        assert manifest["arity"] == "1"

    def test_config_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[simulate]\nbogus = 1\n")
        assert run_cli(
            "simulate", "--config", cfg, "--k", 1, "--alpha", "0.5",
            "--theta", "2", "--m", 5, "--out", tmp_path / "x.jsonl",
        ) == 2

    def test_config_key_for_a_required_flag(self, tmp_path, capsys):
        # argparse demands a required flag before the file is read, so
        # such a key could never be used.
        cfg = tmp_path / "req.ini"
        cfg.write_text("[simulate]\nk = 1\n")
        assert run_cli(
            "simulate", "--config", cfg, "--k", 1, "--alpha", "0.5",
            "--theta", "2", "--m", 5, "--out", tmp_path / "x.jsonl",
        ) == 2
        err = capsys.readouterr().err
        assert "config key 'k' sets the required simulate flag --k" in err
        assert "give it on the command line" in err
        assert not (tmp_path / "x.jsonl").exists()

    def test_config_value_its_converter_rejects(self, sim_files, tmp_path, capsys):
        out, _ = sim_files
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[simulate]\nseed = ten\n[fit]\nalpha-prior = x\n")
        assert run_cli(
            "simulate", "--config", cfg, "--k", 1, "--alpha", "0.5",
            "--theta", "2", "--m", 5, "--out", tmp_path / "x.jsonl",
        ) == 2
        assert "config [simulate] seed = 'ten'" in capsys.readouterr().err
        assert run_cli(
            "fit", "--config", cfg, "--input", out, "--k", 2, "--out", tmp_path / "c",
        ) == 2
        assert "config [fit] alpha-prior = 'x'" in capsys.readouterr().err


class TestFileio:
    def test_interactions_round_trip(self, tmp_path):
        net = InteractionNetwork.from_records(
            [("a", ["b", "b"]), ("c", ["a"])]
        )
        path = tmp_path / "rt.jsonl"
        fileio.write_interactions_jsonl(path, net)
        back = fileio.read_interactions_jsonl(path)
        assert list(back.records()) == list(net.records())

    def test_interactions_round_trip_arrays(self, tmp_path):
        records = [("a", ["b", "b"]), ("c", ["a", "c"]), ("b", ["d"])]
        net = InteractionNetwork.from_records(records)
        path = tmp_path / "rt.jsonl"
        fileio.write_interactions_jsonl(path, net)
        back = fileio.read_interactions_jsonl(path)
        assert back.node_ids == net.node_ids
        for name in ("senders", "offsets", "receivers"):
            assert np.array_equal(getattr(back, name), getattr(net, name)), name

    def test_one_iteration_single_block_chain_round_trip(self, tmp_path):
        chain = Chain(
            k=1, burn_in=0, seed=3, node_ids=["a", "b,c", "d"],
            assignments=np.zeros((1, 3), dtype=np.int32),
            alphas=np.array([[0.25]]), thetas=np.array([[1.5]]),
            props=np.ones((1, 1, 1)), log_probs=np.array([-7.125]),
            block_conc=1.0, recv_conc=2.0, sweep_backend="c", nodes_moved=2,
        )
        fileio.write_chain(tmp_path / "c", chain)
        back = fileio.read_chain(tmp_path / "c")
        assert back.node_ids == chain.node_ids
        assert back.assignments.dtype == np.int32
        assert back.assignments.shape == (1, 3)
        for name in ("assignments", "alphas", "thetas", "props", "log_probs"):
            assert np.array_equal(getattr(back, name), getattr(chain, name)), name
        assert (back.k, back.burn_in, back.seed, back.nodes_moved) == (1, 0, 3, 2)

    def test_assignment_round_trip(self, tmp_path):
        net = InteractionNetwork.from_records([("a", ["b"]), ("c", ["a"])])
        assign = BlockAssignment(np.array([0, 1, 0]), 2)
        path = tmp_path / "truth.csv"
        fileio.write_assignment_csv(path, net, assign)
        back = fileio.read_assignment_csv(path, net, k=2)
        assert np.array_equal(back.labels, assign.labels)
        # Rows in another order, a node outside the network, and a
        # repeated node whose later row wins.
        path.write_text("node,block\nc,1\nzz,3\na,2\nb,2\na,1\n")
        back = fileio.read_assignment_csv(path, net)
        assert np.array_equal(back.labels, assign.labels) and back.k == 3

    def test_assignment_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("who,where\na,1\n")
        net = InteractionNetwork.from_records([("a", ["b"])])
        with pytest.raises(DataError, match="header"):
            fileio.read_assignment_csv(path, net)

    def test_assignment_bad_row_names_file_line_after_blank_lines(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("node,block\n\n\nb,x\n")
        net = InteractionNetwork.from_records([("a", ["b"])])
        with pytest.raises(DataError, match="line 4: bad block value 'x'"):
            fileio.read_assignment_csv(path, net)

    def test_atomic_write_cleans_up_on_failure(self, tmp_path):
        target = tmp_path / "f.txt"
        with pytest.raises(RuntimeError):
            with fileio.atomic_write(target) as fh:
                fh.write("partial")
                raise RuntimeError("boom")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []


def _fresh_python(code: str) -> str:
    src = str(Path(bvcm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    return out.stdout.strip()


def _scipy_and_kernel_loads_after(argv, prelude: str = "") -> tuple[list, int]:
    """The scipy modules a fresh interpreter has loaded after running
    ``prelude`` and then the CLI on argv, and how many times it asked for
    the compiled kernel."""
    code = (
        "import json, sys, bvcm._sweep as s, bvcm.cli as c\n"
        f"{prelude}"
        f"assert c.main({[str(a) for a in argv]!r}) == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
        "print(s.load.cache_info().misses)"
    )
    scipy, loads = _fresh_python(code).splitlines()[-2:]
    return json.loads(scipy), int(loads)


def test_cli_import_leaves_out_scipy_stats():
    # numpy is the only runtime dependency: importing the CLI loads no
    # scipy module, scipy.stats included.
    code = "import sys, bvcm.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _fresh_python(code) == "[]"


def test_no_command_loads_scipy(sim_files, tmp_path):
    # No command loads scipy on either sweep backend; only a fit asks for
    # the compiled kernel. eval and stats have tests of their own below.
    out, _ = sim_files
    chain = tmp_path / "chain"
    bound = ["bound", "--alpha", "0.5", "--a", "0.9", "--gamma1", "0.9", "--gamma2", "0.9"]
    simulate = [
        "simulate", "--k", 2, "--alpha", "0.5,0.5", "--theta", "5,5", "--m", 50,
        "--out", tmp_path / "sim.jsonl",
    ]
    fit = ["fit", "--input", out, "--k", 2, "--iters", 4, "--burnin", 1, "--out", chain]
    for argv in (bound, simulate):
        assert _scipy_and_kernel_loads_after(argv) == ([], 0), argv[0]
    assert _scipy_and_kernel_loads_after(fit) == ([], 1)
    # A fit on the Python sweep, the kernel's library being missing.
    python_fit = [*fit[:-1], tmp_path / "python_chain"]
    missing = tmp_path / "libnpyrandom.a"
    prelude = f"import pathlib; s.NPYRANDOM = pathlib.Path({str(missing)!r})\n"
    assert _scipy_and_kernel_loads_after(python_fit, prelude) == ([], 1)
    manifest = json.loads((tmp_path / "python_chain" / "chain_manifest.json").read_text())
    assert manifest["sweep_backend"] == "python"


def test_cli_import_leaves_out_scipy_optimize(sim_files, tmp_path):
    # Label alignment is in-package, so eval loads neither scipy.optimize
    # nor any other scipy module, and builds no kernel.
    out, truth = sim_files
    chain = tmp_path / "chain"
    run_cli("fit", "--input", out, "--k", 2, "--iters", 4, "--burnin", 1, "--out", chain)
    evaluate = ["eval", "--input", out, "--chain", chain, "--truth", truth, "--out", tmp_path / "m"]
    assert _scipy_and_kernel_loads_after(evaluate) == ([], 0)
    assert (tmp_path / "m" / "misclassification.csv").exists()


def test_only_stats_loads_scipy(sim_files, tmp_path):
    # stats was the last command to load scipy (for the degree-law fit's
    # chi-square tail); that tail is now a finite series, so stats loads
    # no scipy module and builds no kernel either.
    out, truth = sim_files
    stats = ["stats", "--input", out, "--truth", truth, "--out", tmp_path / "s"]
    assert _scipy_and_kernel_loads_after(stats) == ([], 0)
    assert (tmp_path / "s" / "powerlaw.csv").exists()


def test_runtime_imports_are_stdlib_numpy_or_bvcm():
    # Imports inside functions count too: a lazy import escapes every
    # start-up check, as scipy's once did.
    allowed = sys.stdlib_module_names | {"numpy", "bvcm"}
    for path in sorted(Path(bvcm.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name}:{node.lineno} imports {name}"


def test_every_public_name_has_a_caller():
    # A name in a module's __all__ must be used in the package besides
    # its definition and re-export (as a name or an attribute, type
    # annotations included), or be named in perfbench/.
    package = Path(bvcm.__file__).parent
    used = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    used.update(*(re.findall(r"\w+", p.read_text()) for p in bench.glob("*.py")))
    unused = []
    for path in sorted(package.glob("*.py")):
        module = importlib.import_module(f"bvcm.{path.stem}".removesuffix(".__init__"))
        unused += [f"{path.stem}.{name}" for name in getattr(module, "__all__", []) if name not in used]
    assert unused == []


def test_bound_neither_builds_nor_loads_the_sweep():
    code = (
        "import bvcm._sweep as s, bvcm.cli as c\n"
        "c.main(['bound', '--alpha', '0.5', '--a', '0.9', '--gamma1', '0.9', '--gamma2', '0.9'])\n"
        "print(s.load.cache_info().misses)"
    )
    assert _fresh_python(code).splitlines()[-1] == "0"


def test_chain_manifest_records_sweep_backend(sim_files, tmp_path):
    out, _ = sim_files
    chain_dir = tmp_path / "chain"
    run_cli(
        "fit", "--input", out, "--k", 2, "--iters", 6, "--burnin", 2,
        "--seed", 4, "--out", chain_dir,
    )
    meta = json.loads((chain_dir / "chain_manifest.json").read_text())
    chain = fileio.read_chain(chain_dir)
    assert meta["sweep_backend"] in ("c", "python")
    # Every sweep visits each node once, so the moves after the first
    # sweep are exactly the label changes between recorded iterations.
    later = int((chain.assignments[1:] != chain.assignments[:-1]).sum())
    assert later <= meta["nodes_moved"] <= later + chain.n_nodes
    assert (chain.sweep_backend, chain.nodes_moved) == (meta["sweep_backend"], meta["nodes_moved"])
