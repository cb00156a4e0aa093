"""Build, cache and load the compiled single-site sweep (``_sweep.c``).

The kernel is compiled on first use with the system C compiler (``cc -O2
-fPIC -shared -ffp-contract=off``: no fused multiply-adds, no fast-math,
no host-specific code, so its floating point matches Python's) and loaded
with ``ctypes``.  The shared object is cached in ``$XDG_CACHE_HOME/bvcm``
(default ``~/.cache/bvcm``) under a name keyed by the sha256 of the
source, the flags and the platform; it is written under a temporary name
and renamed into place, so concurrent processes never load a partial
file.  When that directory is unwritable the build goes to a per-process
temporary directory.  When no compiler works, ``load`` warns once and
returns None, and the sampler runs its Python sweep.
"""

from __future__ import annotations

import atexit
import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import sysconfig
import tempfile
import warnings
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

SOURCE = Path(__file__).with_name("_sweep.c")
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_i64 = ctypes.c_int64
_ptr = ctypes.c_void_p


class SweepState(ctypes.Structure):
    """Mirror of the C ``SweepState``: sizes, then pointers to the
    sampler's arrays (see ``_sweep.c`` for each field)."""

    _fields_ = [
        ("n", _i64), ("k", _i64), ("deg_stride", _i64), ("block_conc", ctypes.c_double),
        ("labels", _ptr), ("deg", _ptr), ("node_inits", _ptr), ("self_pairs", _ptr),
        ("out_off", _ptr), ("out_idx", _ptr), ("in_off", _ptr), ("in_idx", _ptr),
        ("block_n", _ptr), ("block_deg", _ptr), ("inits", _ptr), ("pair", _ptr),
        ("log_prop", _ptr), ("la_deg", _ptr), ("alpha", _ptr), ("theta", _ptr),
        ("uniforms", _ptr),
    ]


_ARRAYS = [name for name, kind in SweepState._fields_ if kind is _ptr]
_FLOAT_ARRAYS = {"log_prop", "la_deg", "alpha", "theta", "uniforms"}


def bind(arrays: dict, n: int, k: int, deg_stride: int, block_conc: float):
    """The kernel's state argument over ``arrays`` (one per pointer field,
    written and read in place), after checking each one's dtype and
    layout.  The state keeps the arrays alive."""
    if sorted(arrays) != sorted(_ARRAYS):
        raise TypeError(f"sweep state needs exactly the arrays {_ARRAYS}")
    for name, arr in arrays.items():
        want = np.float64 if name in _FLOAT_ARRAYS else np.int64
        if arr.dtype != want or not arr.flags.c_contiguous:
            raise TypeError(f"sweep state array {name} must be C-contiguous {want.__name__}")
    state = SweepState(
        n=n, k=k, deg_stride=deg_stride, block_conc=block_conc,
        **{name: arr.ctypes.data for name, arr in arrays.items()},
    )
    state.arrays = arrays
    return ctypes.byref(state)


def _cache_dirs() -> Iterator[Path]:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    yield Path(base) / "bvcm"
    scratch = tempfile.mkdtemp(prefix="bvcm-")
    atexit.register(shutil.rmtree, scratch, True)
    yield Path(scratch)


def _build() -> Path:
    """Path of the compiled kernel, compiling it unless already cached."""
    key = hashlib.sha256(
        SOURCE.read_bytes() + repr((FLAGS, sysconfig.get_platform())).encode()
    ).hexdigest()
    name = f"_sweep-{key[:16]}.so"
    for cache in _cache_dirs():
        target = cache / name
        if target.exists():
            return target
        try:
            cache.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix=".building-", suffix=".so", dir=cache)
        except OSError:
            continue
        os.close(fd)
        try:
            proc = subprocess.run(
                ["cc", *FLAGS, "-o", tmp, str(SOURCE), "-lm"],
                capture_output=True, text=True, timeout=120,
            )
            if proc.returncode:
                raise OSError(f"cc exited with {proc.returncode}: {proc.stderr.strip()[-400:]}")
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return target
    raise OSError("no writable directory for the compiled sweep")


@functools.lru_cache(maxsize=None)
def load() -> Optional[ctypes.CDLL]:
    """The kernel library, or None (with one warning per process) when it
    cannot be built or loaded."""
    try:
        lib = ctypes.CDLL(str(_build()))
    except (OSError, subprocess.SubprocessError) as exc:
        warnings.warn(
            f"compiled sweep unavailable, using the Python sweep: {exc}",
            RuntimeWarning, stacklevel=2,
        )
        return None
    state = ctypes.POINTER(SweepState)
    lib.bvcm_sweep.argtypes = [state]
    lib.bvcm_sweep.restype = _i64
    lib.bvcm_lgamma.argtypes = [ctypes.c_double]
    lib.bvcm_lgamma.restype = ctypes.c_double
    return lib
