import json
import os
from pathlib import Path

import numpy as np
import pytest

from bvcm import fileio
from bvcm.cli import main
from bvcm.core import BlockAssignment, InteractionNetwork
from bvcm.errors import DataError


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

    def test_empty_network(self, tmp_path):
        out = tmp_path / "empty.jsonl"
        assert run_cli(
            "simulate", "--k", 1, "--alpha", "0.5", "--theta", "1",
            "--m", 0, "--out", out,
        ) == 0
        assert out.read_text() == ""
        assert out.with_name("empty_manifest.json").exists()

    def test_vector_length_mismatch_is_usage_error(self, tmp_path):
        code = run_cli(
            "simulate", "--k", 2, "--alpha", "0.5", "--theta", "5,5",
            "--m", 10, "--out", tmp_path / "x.jsonl",
        )
        assert code == 2

    def test_fixed_propensity_needs_conditional_mode(self, tmp_path):
        code = run_cli(
            "simulate", "--k", 2, "--alpha", "0.5,0.5", "--theta", "5,5",
            "--prop-diag", "0.9", "--mode", "sequential",
            "--m", 10, "--out", tmp_path / "x.jsonl",
        )
        assert code == 2

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

    def test_stats(self, sim_files, tmp_path):
        out, truth = sim_files
        st = tmp_path / "stats"
        code = run_cli(
            "stats", "--input", out, "--truth", truth,
            "--checkpoints", "4,40,200,400", "--out", st,
        )
        assert code == 0
        assert (st / "degree_distribution.csv").exists()
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

    def test_config_file_defaults_and_override(self, tmp_path):
        cfg = tmp_path / "bvcm.ini"
        cfg.write_text("[simulate]\nm = 25\nseed = 9\n")
        out = tmp_path / "cfg.jsonl"
        code = run_cli(
            "simulate", "--config", cfg, "--k", 1, "--alpha", "0.5",
            "--theta", "2", "--m", 30, "--out", out,
        )
        assert code == 0
        # explicit --m wins over the config value; seed comes from config
        assert len(out.read_text().strip().splitlines()) == 30
        manifest = json.loads(out.with_name("cfg_manifest.json").read_text())
        assert manifest["seed"] == 9

    def test_config_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[simulate]\nbogus = 1\n")
        assert run_cli(
            "simulate", "--config", cfg, "--k", 1, "--alpha", "0.5",
            "--theta", "2", "--m", 5, "--out", tmp_path / "x.jsonl",
        ) == 2


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

    def test_assignment_round_trip(self, tmp_path):
        net = InteractionNetwork.from_records([("a", ["b"]), ("c", ["a"])])
        assign = BlockAssignment(np.array([0, 1, 0]), 2)
        path = tmp_path / "truth.csv"
        fileio.write_assignment_csv(path, net, assign)
        back = fileio.read_assignment_csv(path, net, k=2)
        assert np.array_equal(back.labels, assign.labels)

    def test_assignment_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("who,where\na,1\n")
        net = InteractionNetwork.from_records([("a", ["b"])])
        with pytest.raises(DataError, match="header"):
            fileio.read_assignment_csv(path, net)

    def test_atomic_write_cleans_up_on_failure(self, tmp_path):
        target = tmp_path / "f.txt"
        with pytest.raises(RuntimeError):
            with fileio.atomic_write(target) as fh:
                fh.write("partial")
                raise RuntimeError("boom")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []
