"""File formats: interactions JSONL, assignment/chain/membership CSVs,
run manifests.  All writes go through a temp-file-then-rename so partial
files never appear under the target name.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import tempfile
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

import numpy as np

from .core import BlockAssignment, Chain, InteractionNetwork
from .errors import DataError

__all__ = [
    "atomic_write",
    "write_interactions_jsonl",
    "read_interactions_jsonl",
    "write_assignment_csv",
    "read_assignment_csv",
    "read_matrix_csv",
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


@contextmanager
def _open_text(path: Path):
    """`path` opened as UTF-8 text.  A byte that is not UTF-8 is a
    DataError naming its line, found by a binary re-read only then, so
    the read itself stays a text read."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        with open(path, "rb") as raw:
            for ln, line in enumerate(raw, start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError:
                    raise DataError(f"{path}: line {ln}: not UTF-8 text") from None
        raise


def _numeric_rows(fh, skip: int, dtype, width: int) -> np.ndarray:
    """The lines of text file `fh` after its first `skip` (already
    read, e.g. a header) as rows of `width` numbers: one np.loadtxt,
    blank lines skipped.  Only when that fails are the lines parsed
    again one by one, to name the first bad one in the DataError."""
    with warnings.catch_warnings():
        # An empty body is the caller's to report, not warned about.
        warnings.simplefilter("ignore", UserWarning)
        try:
            body = np.loadtxt(fh, delimiter=",", dtype=dtype, ndmin=2)
            if body.size == 0 or body.shape[1] == width:
                return body.reshape(-1, width)
        except ValueError:
            pass
        want = f"expected {width} {np.dtype(dtype).name} values"
        fh.seek(0)
        for ln, line in itertools.islice(enumerate(fh, start=1), skip, None):
            try:
                row = np.loadtxt([line], delimiter=",", dtype=dtype, ndmin=2)
            except ValueError:
                row = None
            if row is None or row.size and row.shape[1] != width:
                raise DataError(f"{fh.name}: line {ln}: {want}")
    raise DataError(f"{fh.name}: {want} per row")


def write_interactions_jsonl(path: Path, network: InteractionNetwork) -> None:
    """One interaction per line: {"sender": id, "receivers": [ids...]};
    line order is the interaction label."""
    with atomic_write(path) as fh:
        for sender, receivers in network.records():
            fh.write(json.dumps({"sender": sender, "receivers": receivers}) + "\n")


def read_interactions_jsonl(path: Path) -> InteractionNetwork:
    """Inverse of write_interactions_jsonl; blank lines are skipped and
    every rejected record names its file line."""
    last_line = [0]
    # from_records checks each record as it draws it, so a rejected
    # record is the one on the line read last.
    with _open_text(path) as fh:
        return InteractionNetwork.from_records(
            _jsonl_records(path, fh, last_line),
            where=lambda pos: f"{path}: line {last_line[0]}",
        )


def _jsonl_records(path: Path, lines, last_line: list):
    """(sender, receivers) of each non-blank line, setting last_line[0]
    to the file line of each record before yielding it."""
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
        last_line[0] = ln
        yield sender, receivers


def write_assignment_csv(
    path: Path, network: InteractionNetwork, assignment: BlockAssignment
) -> None:
    """node,block rows with 1-based block labels."""
    # Block labels are small ints, which Python caches: the list costs
    # one pointer per node.
    blocks = (assignment.labels + 1).tolist()
    write_csv(path, ["node", "block"], zip(network.node_ids, blocks, strict=True))


def read_assignment_csv(
    path: Path, network: InteractionNetwork, k: Optional[int] = None
) -> BlockAssignment:
    """The network's assignment from node,block rows (1-based blocks).

    A later row for a node replaces an earlier one; rows naming nodes
    outside the network are ignored, but their blocks count towards the
    default k, the largest block given.  A block outside 1..k is a data
    error on every row; when k is defaulted, the node count stands in for
    k, since no more blocks than nodes can be occupied and the default k
    sizes per-block tables.
    Blocks go straight into an int64 array, so no name -> block table of
    the whole file is built: row j is node j when it names that node, as
    in the files ``write_assignment_csv`` writes, and any other row is
    looked up in the network's node index.
    """
    ids = network.node_ids
    blocks = np.zeros(len(ids), dtype=np.int64)
    assigned = np.zeros(len(ids), dtype=bool)
    unknown: dict[str, int] = {}
    top = len(ids) if k is None else k
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if {"node", "block"} - set(header):
            raise DataError(f"{path}: expected header node,block")
        node, block = header.index("node"), header.index("block")
        # Blank rows are skipped; errors name the file line of the row.
        for j, row in enumerate(filter(None, reader)):
            try:
                name, value = row[node], int(row[block])
                if value.bit_length() > 63:  # outside int64
                    raise ValueError
            except (IndexError, ValueError):
                value = row[block] if block < len(row) else None
                raise DataError(
                    f"{path}: line {reader.line_num}: bad block value {value!r}"
                )
            if not 1 <= value <= top:
                raise DataError(
                    f"{path}: line {reader.line_num}: block {value} outside 1..{top}"
                    + (", the network's node count" if k is None else "")
                )
            if j < len(ids) and ids[j] == name:
                i = j
            else:
                try:
                    i = network.node_index(name)
                except DataError:
                    unknown[name] = value
                    continue
            blocks[i] = value
            assigned[i] = True
    if not (unknown or assigned.any()):
        raise DataError(f"{path}: no assignments found")
    if not assigned.all():
        missing = ids[int(np.argmin(assigned))]
        raise DataError(f"node {missing!r} has no block assignment")
    given = [*unknown.values(), *([int(blocks.max())] if blocks.size else [])]
    k = k or max(given)
    return BlockAssignment(blocks - 1, k)


def read_matrix_csv(path: Path, k: int) -> np.ndarray:
    """A k x k matrix from a headerless CSV of numbers."""
    with _open_text(path) as fh:
        matrix = _numeric_rows(fh, 0, np.float64, k)
    if len(matrix) != k:
        raise DataError(f"{path}: expected a {k}x{k} matrix")
    return matrix


def write_csv(path: Path, header: list[str], rows) -> None:
    with atomic_write(path) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


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

    # The body is integers, which csv.writer never quotes, so each row is
    # one joined string; the header keeps csv.writer, since a node name
    # may need quoting.
    names = [str(b + 1) for b in range(k)]
    with atomic_write(out_dir / "assignments.csv") as fh:
        csv.writer(fh).writerow(["iter", *chain.node_ids])
        for t, row in enumerate(chain.assignments):
            fh.write(",".join([str(t), *[names[x] for x in row.tolist()]]) + "\r\n")

    write_csv(
        out_dir / "membership.csv",
        ["node"] + [f"freq_{b + 1}" for b in range(k)],
        (
            [name] + [f"{f:.10g}" for f in freqs.tolist()]
            for name, freqs in zip(chain.node_ids, chain.membership())
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
            "sweep_backend": chain.sweep_backend,
            "nodes_moved": chain.nodes_moved,
        },
    )


def read_chain(out_dir: Path) -> Chain:
    """Inverse of write_chain.  Assignments come back as int32 0-based
    labels, (iterations, nodes).  The body of each CSV is parsed by one
    numpy call; a malformed cell or row is a DataError naming the file
    and its line, and so is a manifest that is not JSON, lacks a field
    or has a burn_in outside the chain's iterations."""
    out_dir = Path(out_dir)
    path = manifest = out_dir / "chain_manifest.json"
    meta = read_manifest(path)
    try:
        k = int(meta["k"])
        fields = dict(
            k=k, burn_in=int(meta["burn_in"]), seed=int(meta["seed"]),
            block_conc=float(meta["block_conc"]), recv_conc=float(meta["recv_conc"]),
            elapsed_s=float(meta.get("elapsed_s", 0.0)),
            sweep_backend=str(meta.get("sweep_backend", "python")),
            nodes_moved=int(meta.get("nodes_moved", 0)),
        )
    except KeyError as exc:
        raise DataError(f"{path}: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad field: {exc}") from None

    path = out_dir / "assignments.csv"
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        node_ids = next(reader, [])[1:]
        body = _numeric_rows(fh, reader.line_num, np.int64, len(node_ids) + 1)
    if len(body) == 0:
        raise DataError(f"{path}: no samples")
    if not 0 <= fields["burn_in"] < len(body):
        raise DataError(
            f"{manifest}: field burn_in = {fields['burn_in']} outside "
            f"0..{len(body) - 1}, the chain's iterations"
        )
    labels = body[:, 1:]
    if labels.size and (labels.min() < 1 or labels.max() > k):
        raise DataError(f"{path}: block labels outside 1..{k}")
    assignments = (labels - 1).astype(np.int32)

    path = out_dir / "chain.csv"
    with _open_text(path) as fh:
        next(fh, None)  # the header
        params = _numeric_rows(fh, 1, np.float64, 2 + 2 * k + k * k)
    if len(params) != len(assignments):
        raise DataError(f"{path}: {len(params)} rows, but assignments.csv has {len(assignments)}")

    return Chain(
        node_ids=node_ids,
        assignments=assignments,
        log_probs=params[:, 1],
        alphas=params[:, 2 : 2 + k],
        thetas=params[:, 2 + k : 2 + 2 * k],
        props=params[:, 2 + 2 * k :].reshape(-1, k, k),
        **fields,
    )


def write_manifest(path: Path, payload: dict) -> None:
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def read_manifest(path: Path) -> dict:
    with _open_text(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: line {exc.lineno}: malformed JSON: {exc.msg}") from None
