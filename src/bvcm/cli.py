"""Command-line entry points.

Subcommands: simulate, fit, select-k, eval, bound, stats.  Every
command writes a JSON manifest with its flags and seed, so a run can be
reproduced from its output directory alone.  Exit codes: 0 success,
2 usage error or unopenable path, 3 data error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import configparser
import datetime
import itertools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, fileio
from .consistency import misclassification_bound, restricted_misclassification
from .core import BlockAssignment, ModelParams, degree_distribution
from .errors import BvcmError, DataError, NumericalError, UsageError
from .generator import ArityLaw, GeneratorConfig, simulate
from .gibbs import GibbsConfig, run_gibbs
from .likelihood import marginal_log_likelihood
from .metrics import (
    PosteriorMembership,
    cross_entropy_loss,
    hellinger_distance,
    powerlaw_diagnostic,
    sparsity_growth,
    standardized_l2,
)

__all__ = ["main", "build_parser"]


def _floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")


def _ints(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")


def _pair(text: str) -> tuple[float, float]:
    vals = _floats(text)
    if len(vals) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated values, got {text!r}")
    return vals[0], vals[1]


def worker_count() -> int:
    env = os.environ.get("BVCM_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise UsageError(f"BVCM_THREADS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="bvcm",
        description="Block vertex components model: simulate, fit, evaluate.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {}

    def add(name, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--config", type=Path, default=None,
                       help="INI file; section [%s] provides defaults" % name)
        subs[name] = p
        return p

    p = add("simulate", help="generate a synthetic network")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=_floats, required=True,
                   help="per-block discount parameters, comma separated")
    p.add_argument("--theta", type=_floats, required=True,
                   help="per-block strength parameters, comma separated")
    p.add_argument("--omega", type=float, default=1.0,
                   help="sender-block urn concentration")
    p.add_argument("--zeta", type=float, default=1.0,
                   help="receiver-block urn concentration")
    p.add_argument("--prop-diag", type=float, default=None,
                   help="fix the mixing matrix: this value on the diagonal, "
                        "the rest spread evenly (conditional-iid mode)")
    p.add_argument("--prop-file", type=Path, default=None,
                   help="fix the mixing matrix from a headerless CSV")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--arity", type=str, default="1",
                   help="receivers per interaction: an integer for a fixed "
                        "count, or comma-separated weights over 1..n")
    p.add_argument("--mode", choices=["sequential", "conditional_iid"], default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True, help="interactions JSONL path")
    p.add_argument("--truth-out", type=Path, default=None,
                   help="truth CSV path (default: <out>_truth.csv)")

    p = add("fit", help="run the Gibbs sampler on a network")
    _add_fit_flags(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", type=Path, required=True, help="chain output directory")

    p = add("select-k", help="score a grid of block counts by marginal likelihood")
    _add_fit_flags(p)
    p.add_argument("--kmin", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--out", type=Path, required=True)

    p = add("eval", help="compute recovery metrics for a fitted chain")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--chain", type=Path, required=True, help="chain directory")
    p.add_argument("--truth", type=Path, default=None)
    p.add_argument("--chain-b", type=Path, default=None,
                   help="second chain directory for the Hellinger distance")
    p.add_argument("--metrics", type=str, default=None,
                   help="comma list among l2, cross-entropy, misclass, hellinger")
    p.add_argument("--cutoffs", type=_floats, default=None,
                   help="degree cutoffs for the misclassification curve "
                        "(default: 1 and log m)")
    p.add_argument("--out", type=Path, required=True)

    p = add("bound", help="evaluate the majority-rule misclassification bound")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--a", dest="within", type=float, required=True,
                   help="within-block mixing weight")
    p.add_argument("--gamma1", type=float, required=True)
    p.add_argument("--gamma2", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", type=Path, default=None)

    p = add("stats", help="degree and sparsity diagnostics")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--truth", type=Path, default=None)
    p.add_argument("--checkpoints", type=_ints, default=None,
                   help="interaction-count checkpoints for growth slopes")
    p.add_argument("--out", type=Path, required=True)

    return parser, subs


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", type=Path, required=True, help="interactions JSONL")
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--burnin", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--zeta", type=float, default=1.0)
    p.add_argument("--alpha-prior", type=_pair, default=(1.0, 1.0),
                   help="Beta prior c,d on each discount parameter")
    p.add_argument("--theta-prior", type=_pair, default=(1.0, 1.0),
                   help="Gamma prior shape,rate on each strength parameter")
    p.add_argument("--init", choices=["random", "degree_majority", "warm"],
                   default="random",
                   help="warm = probe fit on a prefix, then extend by "
                        "neighbor majority (helps large balanced networks)")


def _manifest(args: argparse.Namespace) -> dict:
    payload = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in vars(args).items()
        if k != "config"
    }
    payload["version"] = __version__
    payload["created"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return payload


def _build_propensity(args, k: int):
    if args.prop_diag is not None and args.prop_file is not None:
        raise UsageError("give at most one of --prop-diag / --prop-file")
    if args.prop_diag is not None:
        if k > 1:
            off = (1.0 - args.prop_diag) / (k - 1)
            prop = np.full((k, k), off)
        else:
            prop = np.zeros((1, 1))
        np.fill_diagonal(prop, args.prop_diag if k > 1 else 1.0)
        return prop
    if args.prop_file is not None:
        return fileio.read_matrix_csv(args.prop_file, k)
    return None


def _parse_arity(text: str) -> ArityLaw:
    try:
        if "," in text or "." in text:
            return ArityLaw.categorical(_floats(text))
        return ArityLaw.fixed(int(text))
    except (ValueError, argparse.ArgumentTypeError, UsageError) as exc:
        raise UsageError(f"--arity: {exc}") from None


# The flag that sets each ModelParams or GibbsConfig field it can get
# wrong; main reports a fault in one as a usage error naming the flag,
# except that a bad --prop-file is a data error naming the file.
_PARAM_FLAGS = {
    "alpha": "--alpha", "theta": "--theta", "block_conc": "--omega",
    "recv_conc": "--zeta", "propensity": "--prop-diag",
    "alpha_prior": "--alpha-prior", "theta_prior": "--theta-prior",
}


def cmd_simulate(args) -> int:
    if args.k < 1:
        raise UsageError(f"--k must be >= 1, got {args.k}")
    if len(args.alpha) != args.k or len(args.theta) != args.k:
        raise UsageError(
            f"--alpha/--theta need {args.k} entries, got "
            f"{len(args.alpha)}/{len(args.theta)}"
        )
    prop = _build_propensity(args, args.k)
    mode = args.mode
    if mode is None:
        mode = "conditional_iid" if prop is not None else "sequential"
    if mode == "sequential" and prop is not None:
        raise UsageError("a fixed mixing matrix requires --mode conditional_iid")
    block_probs = np.full(args.k, 1.0 / args.k) if prop is not None else None
    params = ModelParams(
        alpha=np.asarray(args.alpha),
        theta=np.asarray(args.theta),
        block_conc=args.omega,
        recv_conc=args.zeta,
        block_probs=block_probs,
        propensity=prop,
    )
    config = GeneratorConfig(
        params=params,
        m=args.m,
        arity=_parse_arity(args.arity),
        seed=args.seed,
        mode=mode,
    )
    result = simulate(config)

    truth_out = args.truth_out or args.out.with_name(args.out.stem + "_truth.csv")
    fileio.write_interactions_jsonl(args.out, result.network)
    fileio.write_assignment_csv(truth_out, result.network, result.assignment)
    manifest = _manifest(args)
    manifest["mode"] = mode
    if result.params.block_probs is not None:
        manifest["realized_block_probs"] = result.params.block_probs.tolist()
    if result.params.propensity is not None:
        manifest["realized_propensity"] = result.params.propensity.tolist()
    fileio.write_manifest(args.out.with_name(args.out.stem + "_manifest.json"), manifest)
    print(f"wrote {result.network.m} interactions, {result.network.n_nodes} nodes")
    return 0


def _gibbs_config(args, k: int, seed: int) -> GibbsConfig:
    """The sampler settings the fit flags give, shared by fit and select-k."""
    return GibbsConfig(
        k=k,
        iterations=args.iters,
        burn_in=args.burnin,
        seed=seed,
        block_conc=args.omega,
        recv_conc=args.zeta,
        alpha_prior=tuple(args.alpha_prior),
        theta_prior=tuple(args.theta_prior),
        init=args.init,
    )


def cmd_fit(args) -> int:
    network = fileio.read_interactions_jsonl(args.input)
    chain = run_gibbs(network, _gibbs_config(args, args.k, args.seed))
    fileio.write_chain(args.out, chain)
    fileio.write_manifest(args.out / "run_manifest.json", _manifest(args))
    print(
        f"chain of {len(chain)} iterations on {network.n_nodes} nodes "
        f"({chain.elapsed_s:.1f}s); mean post-burn-in log prob "
        f"{marginal_log_likelihood(chain):.2f}"
    )
    return 0


def _select_worker(payload) -> tuple[int, int, float]:
    path, rep, config = payload
    chain = run_gibbs(fileio.read_interactions_jsonl(Path(path)), config)
    return config.k, rep, marginal_log_likelihood(chain)


def cmd_select_k(args) -> int:
    if args.kmin > args.kmax:
        raise UsageError(f"--kmin {args.kmin} exceeds --kmax {args.kmax}")
    if args.replicates < 1:
        raise UsageError("--replicates must be >= 1")
    jobs = [
        (str(args.input), rep, _gibbs_config(args, k, args.seed + rep))
        for rep in range(args.replicates)
        for k in range(args.kmin, args.kmax + 1)
    ]
    workers = min(worker_count(), len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_select_worker, jobs))
    else:
        results = [_select_worker(j) for j in jobs]

    scores = {(k, rep): score for k, rep, score in results}
    rows = [
        (k, rep, f"{scores[(k, rep)]:.6f}")
        for rep in range(args.replicates)
        for k in range(args.kmin, args.kmax + 1)
    ]
    fileio.write_csv(args.out / "scores.csv", ["k", "replicate", "score"], rows)
    summary = []
    for rep in range(args.replicates):
        best = max(range(args.kmin, args.kmax + 1), key=lambda k: scores[(k, rep)])
        summary.append((rep, best))
    fileio.write_csv(args.out / "summary.csv", ["replicate", "best_k"], summary)
    fileio.write_manifest(args.out / "run_manifest.json", _manifest(args))
    for rep, best in summary:
        print(f"replicate {rep}: best k = {best}")
    return 0


def _check_chain_nodes(chain, network, args) -> None:
    """Chain column j must be network node j; the chain then shares the
    network's name list instead of keeping its own copy."""
    if chain.node_ids != network.node_ids:
        pairs = enumerate(itertools.zip_longest(chain.node_ids, network.node_ids))
        j, (column, node) = next((j, p) for j, p in pairs if p[0] != p[1])
        if column is None or node is None:
            what = f"{len(chain.node_ids)} node columns, but {args.input} has {network.n_nodes} nodes"
        else:
            what = f"column {j + 2} is node {column!r}, but node {j + 1} of {args.input} is {node!r}"
        raise DataError(
            f"{Path(args.chain) / 'assignments.csv'}: {what}; --input must be "
            "the network the chain was fitted on"
        )
    chain.node_ids = network.node_ids


def cmd_eval(args) -> int:
    network = fileio.read_interactions_jsonl(args.input)
    chain = fileio.read_chain(args.chain)
    wanted = (
        [m.strip() for m in args.metrics.split(",")]
        if args.metrics
        else ["l2", "cross-entropy", "misclass"] + (["hellinger"] if args.chain_b else [])
    )
    known = {"l2", "cross-entropy", "misclass", "hellinger"}
    if set(wanted) - known:
        raise UsageError(f"unknown metrics {sorted(set(wanted) - known)}")

    _check_chain_nodes(chain, network, args)
    truth = None
    if args.truth is not None:
        truth = fileio.read_assignment_csv(args.truth, network, k=chain.k)
    # Every metric reads these: block frequencies and their majority (ties -> lowest).
    membership = PosteriorMembership.from_chain(chain)
    labeling = BlockAssignment(membership.probs.argmax(axis=1), chain.k)
    out = Path(args.out)
    for metric in wanted:
        if metric == "hellinger":
            if args.chain_b is None:
                raise UsageError("hellinger needs --chain-b")
            other = fileio.read_chain(args.chain_b)
            value = hellinger_distance(membership, PosteriorMembership.from_chain(other))
            fileio.write_csv(out / "hellinger.csv", ["hellinger"], [[f"{value:.10g}"]])
            continue
        if truth is None:
            raise UsageError(f"metric {metric} needs --truth")
        if metric == "l2":
            if chain.k != 2:
                if args.metrics is None:
                    continue  # default list on k > 2: quietly skip
                raise UsageError("l2 is defined for k = 2; use cross-entropy")
            value = standardized_l2(membership, truth)
            fileio.write_csv(out / "l2.csv", ["l2"], [[f"{value:.10g}"]])
        elif metric == "cross-entropy":
            total, per_node = cross_entropy_loss(membership, truth)
            fileio.write_csv(
                out / "cross_entropy.csv",
                ["total", "per_node"],
                [[f"{total:.10g}", f"{per_node:.10g}"]],
            )
        elif metric == "misclass":
            # log m is below 1 for m <= 2, so the pair is sorted.
            cutoffs = args.cutoffs or sorted([1.0, math.log(max(network.m, 2))])
            curve = restricted_misclassification(network, labeling, truth, cutoffs)
            fileio.write_csv(
                out / "misclassification.csv",
                ["cutoff", "n_nodes", "rate"],
                [
                    [f"{p.cutoff:.10g}", p.n_nodes, "" if p.rate is None else f"{p.rate:.10g}"]
                    for p in curve
                ],
            )
    fileio.write_manifest(out / "run_manifest.json", _manifest(args))
    print(f"metrics written to {out}")
    return 0


def cmd_bound(args) -> int:
    result = misclassification_bound(
        args.alpha, args.within, args.gamma1, args.gamma2, args.tol
    )
    print(f"mu_min={result.mu_min:.10g} p_out={result.p_out:.10g}")
    if args.out is not None:
        fileio.write_csv(
            args.out,
            ["mu_min", "p_out"],
            [[f"{result.mu_min:.10g}", f"{result.p_out:.10g}"]],
        )
    return 0


def cmd_stats(args) -> int:
    network = fileio.read_interactions_jsonl(args.input)
    truth = None
    if args.truth is not None:
        truth = fileio.read_assignment_csv(args.truth, network)
    out = Path(args.out)

    hist = degree_distribution(network)
    degrees = np.flatnonzero(hist)
    fileio.write_csv(
        out / "degree_distribution.csv",
        ["degree", "count"],
        zip(degrees.tolist(), hist[degrees].tolist()),
    )

    fits = powerlaw_diagnostic(network, truth)
    fileio.write_csv(
        out / "powerlaw.csv",
        ["block", "n_nodes", "deg1_fraction", "alpha_hat", "chi2", "pvalue",
         "tail_slope", "note"],
        [
            [
                "global" if f.block is None else f.block + 1,
                f.n_nodes,
                f"{f.deg1_fraction:.6g}",
                f"{f.alpha_hat:.6g}",
                "" if f.chi2 is None else f"{f.chi2:.6g}",
                "" if f.pvalue is None else f"{f.pvalue:.6g}",
                "" if f.tail_slope is None else f"{f.tail_slope:.6g}",
                f.note,
            ]
            for f in fits
        ],
    )

    if args.checkpoints:
        slopes = sparsity_growth(network, args.checkpoints, truth)
        fileio.write_csv(
            out / "sparsity.csv",
            ["block", "slope", "mu_hat", "sparse", "v_counts"],
            [
                [
                    "global" if s.block is None else s.block + 1,
                    "" if s.slope is None else f"{s.slope:.6g}",
                    f"{s.mu_hat:.6g}",
                    int(s.sparse),
                    ";".join(str(v) for v in s.v_counts),
                ]
                for s in slopes
            ],
        )
    fileio.write_manifest(out / "run_manifest.json", _manifest(args))
    print(f"diagnostics written to {out}")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "select-k": cmd_select_k,
    "eval": cmd_eval,
    "bound": cmd_bound,
    "stats": cmd_stats,
}


def _apply_config(parser, subs, argv) -> argparse.Namespace:
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is None:
        return args
    ini = configparser.ConfigParser()
    if not ini.read(args.config):
        raise UsageError(f"cannot read config file {args.config}")
    if not ini.has_section(args.command):
        return args
    sub = subs[args.command]
    actions = {a.dest: a for a in sub._actions if a.dest != "help"}
    defaults = {}
    for key, raw in ini.items(args.command):
        dest = key.replace("-", "_")
        if dest not in actions:
            raise UsageError(f"config key {key!r} is not a {args.command} option")
        if actions[dest].required:
            # argparse demands the flag before the file is read.
            raise UsageError(
                f"config key {key!r} sets the required {args.command} flag "
                f"{actions[dest].option_strings[0]}; give it on the command line"
            )
        conv = actions[dest].type
        try:
            defaults[dest] = conv(raw) if conv is not None else raw
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            raise UsageError(
                f"config [{args.command}] {key} = {raw!r} is not a valid value"
            ) from None
    sub.set_defaults(**defaults)
    # Re-parse: explicit flags still win over config-provided defaults.
    return parser.parse_args(argv)


def main(argv=None) -> int:
    parser, subs = build_parser()
    try:
        args = _apply_config(parser, subs, argv)
        try:
            return _COMMANDS[args.command](args)
        except (UsageError, DataError) as exc:
            if exc.field == "propensity" and getattr(args, "prop_file", None) is not None:
                raise DataError(f"{args.prop_file}: {exc}") from None
            if exc.field in _PARAM_FLAGS:
                raise UsageError(f"{_PARAM_FLAGS[exc.field]}: {exc}") from None
            raise
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        # An unopenable path: the exit code argparse gives a bad file argument.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BvcmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
