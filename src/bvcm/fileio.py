"""File formats: interactions JSONL, assignment/chain/membership CSVs,
run manifests.  All writes go through a temp-file-then-rename so partial
files never appear under the target name.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

import numpy as np

from .core import BlockAssignment, InteractionNetwork
from .errors import DataError
from .gibbs import Chain
from .metrics import PosteriorMembership

__all__ = [
    "atomic_write",
    "write_interactions_jsonl",
    "read_interactions_jsonl",
    "write_assignment_csv",
    "read_assignment_csv",
    "write_chain",
    "read_chain",
    "write_csv",
    "write_manifest",
    "read_manifest",
]


@contextmanager
def atomic_write(path: Path):
    """Text-file handle whose content only appears at `path` on success."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with io.open(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_interactions_jsonl(path: Path, network: InteractionNetwork) -> None:
    """One interaction per line: {"sender": id, "receivers": [ids...]};
    line order is the interaction label."""
    with atomic_write(path) as fh:
        for sender, receivers in network.records():
            fh.write(json.dumps({"sender": sender, "receivers": receivers}) + "\n")


def read_interactions_jsonl(path: Path) -> InteractionNetwork:
    """Inverse of write_interactions_jsonl; blank lines are skipped and
    every rejected record names its file line."""
    with open(path, encoding="utf-8") as fh:
        return InteractionNetwork.from_records(_jsonl_records(path, fh))


def _jsonl_records(path: Path, lines):
    for ln, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            sender = obj["sender"]
            receivers = obj["receivers"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise DataError(f"{path}: line {ln}: malformed interaction: {exc}")
        if not isinstance(receivers, list) or not receivers:
            raise DataError(f"{path}: line {ln}: receivers must be a non-empty list")
        if sender is None or sender == "":
            raise DataError(f"{path}: line {ln}: missing sender")
        if None in receivers or "" in receivers:
            raise DataError(f"{path}: line {ln}: missing receiver identifier")
        yield sender, receivers


def write_assignment_csv(
    path: Path, network: InteractionNetwork, assignment: BlockAssignment
) -> None:
    """node,block rows with 1-based block labels."""
    with atomic_write(path) as fh:
        w = csv.writer(fh)
        w.writerow(["node", "block"])
        for name, block in assignment.to_mapping(network).items():
            w.writerow([name, block])


def read_assignment_csv(
    path: Path, network: InteractionNetwork, k: Optional[int] = None
) -> BlockAssignment:
    mapping: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or {"node", "block"} - set(reader.fieldnames):
            raise DataError(f"{path}: expected header node,block")
        for ln, row in enumerate(reader, start=2):
            try:
                mapping[row["node"]] = int(row["block"])
            except (TypeError, ValueError):
                raise DataError(f"{path}: line {ln}: bad block value {row.get('block')!r}")
    if not mapping:
        raise DataError(f"{path}: no assignments found")
    k = k or max(mapping.values())
    return BlockAssignment.from_mapping(network, mapping, k)


def write_csv(path: Path, header: list[str], rows) -> None:
    with atomic_write(path) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row)


def _chain_header(k: int) -> list[str]:
    cols = ["iter", "log_prob"]
    cols += [f"alpha_{b + 1}" for b in range(k)]
    cols += [f"theta_{b + 1}" for b in range(k)]
    cols += [f"prop_{b + 1}_{b2 + 1}" for b in range(k) for b2 in range(k)]
    return cols


def write_chain(out_dir: Path, chain: Chain) -> None:
    """chain.csv (params per iteration), assignments.csv (iteration x node,
    1-based), membership.csv (post-burn-in frequencies), manifest.json."""
    out_dir = Path(out_dir)
    k = chain.k
    rows = []
    for t in range(len(chain)):
        row = [t, f"{chain.log_probs[t]:.10g}"]
        row += [f"{x:.10g}" for x in chain.alphas[t]]
        row += [f"{x:.10g}" for x in chain.thetas[t]]
        row += [f"{x:.10g}" for x in chain.props[t].ravel()]
        rows.append(row)
    write_csv(out_dir / "chain.csv", _chain_header(k), rows)

    write_csv(
        out_dir / "assignments.csv",
        ["iter"] + list(chain.node_ids),
        ([t] + [int(b) + 1 for b in chain.assignments[t]] for t in range(len(chain))),
    )

    membership = PosteriorMembership.from_chain(chain)
    write_csv(
        out_dir / "membership.csv",
        ["node"] + [f"freq_{b + 1}" for b in range(k)],
        (
            [name] + [f"{f:.10g}" for f in freqs]
            for name, freqs in zip(membership.node_ids, membership.probs.tolist())
        ),
    )

    write_manifest(
        out_dir / "chain_manifest.json",
        {
            "k": k,
            "iterations": len(chain),
            "burn_in": chain.burn_in,
            "seed": chain.seed,
            "block_conc": chain.block_conc,
            "recv_conc": chain.recv_conc,
            "elapsed_s": chain.elapsed_s,
            "prop_rejections": chain.prop_rejections,
        },
    )


def read_chain(out_dir: Path) -> Chain:
    out_dir = Path(out_dir)
    meta = read_manifest(out_dir / "chain_manifest.json")
    k = int(meta["k"])

    with open(out_dir / "assignments.csv", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        node_ids = header[1:]
        assignments = np.array(
            [[int(x) - 1 for x in row[1:]] for row in reader], dtype=np.int32
        )

    iters = assignments.shape[0]
    alphas = np.empty((iters, k))
    thetas = np.empty((iters, k))
    props = np.empty((iters, k, k))
    log_probs = np.empty(iters)
    with open(out_dir / "chain.csv", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for t, row in enumerate(reader):
            vals = [float(x) for x in row[1:]]
            log_probs[t] = vals[0]
            alphas[t] = vals[1 : 1 + k]
            thetas[t] = vals[1 + k : 1 + 2 * k]
            props[t] = np.array(vals[1 + 2 * k :]).reshape(k, k)

    return Chain(
        k=k,
        burn_in=int(meta["burn_in"]),
        seed=int(meta["seed"]),
        node_ids=node_ids,
        assignments=assignments,
        alphas=alphas,
        thetas=thetas,
        props=props,
        log_probs=log_probs,
        block_conc=float(meta["block_conc"]),
        recv_conc=float(meta["recv_conc"]),
        elapsed_s=float(meta.get("elapsed_s", 0.0)),
        prop_rejections=int(meta.get("prop_rejections", 0)),
    )


def write_manifest(path: Path, payload: dict) -> None:
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def read_manifest(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
