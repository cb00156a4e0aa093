"""Build, cache and load the compiled sampler phases (``_sweep.c``): the
sweep, the (alpha, theta) update, the degree-table refresh, the
mixing-matrix redraw and the log-probability, all on one state that
``bind`` makes over the sampler's arrays, with one lgamma memo.

The kernel is compiled on first use with the system C compiler (``cc -O2
-fPIC -shared -ffp-contract=off``: no fused multiply-adds, no fast-math,
no host-specific code, so its floating point matches Python's), against
numpy's random C API (the ``numpy/random/distributions.h`` header, which
needs the Python headers, and the static ``libnpyrandom.a`` that numpy
ships in ``numpy/random/lib``), and loaded with ``ctypes``.  The shared
object is cached in ``$XDG_CACHE_HOME/bvcm`` (default ``~/.cache/bvcm``)
under a name keyed by the sha256 of the source, the bytes of
``libnpyrandom.a``, the numpy version, the flags and the platform, so a
numpy upgrade builds a new kernel; it is written under a temporary name
and renamed into place, so concurrent processes never load a partial
file.  The directory keeps the ``KEEP_KERNELS`` most recently used
kernels (by mtime; a cache hit touches its kernel), so checkouts of two
versions run in turn do not rebuild each other's.
When that directory is unwritable the build goes to a per-process
temporary directory.  When no compiler, header or library works, or the
compiler times out, ``load`` warns once and returns None, and the
sampler runs its Python phases.  The build tools (``subprocess``,
``tempfile``, ...) are imported only when there is a kernel to build.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import sysconfig
import warnings
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

SOURCE = Path(__file__).with_name("_sweep.c")
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
# numpy's random C library; the tests point this elsewhere.
NPYRANDOM = Path(np.random.__file__).parent / "lib" / "libnpyrandom.a"
# The kernel's lgamma memo has 2**LGAMMA_MEMO_BITS entries.
LGAMMA_MEMO_BITS = 12
# Compiled kernels the cache directory keeps, the most recently used.
KEEP_KERNELS = 4

_i64 = ctypes.c_int64
_I64 = ctypes.POINTER(_i64)
_F64 = ctypes.POINTER(ctypes.c_double)

# The sampler's arrays in the C struct's order, each a pointer to its element type.
ARRAYS = {
    "labels": _I64, "deg": _I64, "degrees": _I64, "node_inits": _I64, "self_pairs": _I64,
    "out_off": _I64, "out_idx": _I64, "in_off": _I64, "in_idx": _I64,
    "block_sizes": _I64, "block_deg": _I64, "initiations": _I64, "pair": _I64, "deg_hist": _I64,
    "prop": _F64, "log_prop": _F64, "la_deg": _F64, "alpha": _F64, "theta": _F64, "prior": _F64,
}


class SweepState(ctypes.Structure):
    """Mirror of the C ``SweepState``: sizes and concentrations, the bit
    generator, then typed pointers to the sampler's arrays and the lgamma
    memo (see ``_sweep.c`` for each field; ``la_deg`` is laid out like
    ``deg_hist``)."""

    _fields_ = [
        ("n", _i64), ("k", _i64), ("hist_width", _i64), ("n_degrees", _i64),
        ("memo_bits", _i64), ("block_conc", ctypes.c_double), ("recv_conc", ctypes.c_double),
        ("bitgen", ctypes.c_void_p), *ARRAYS.items(),
        ("memo_key", ctypes.POINTER(ctypes.c_uint64)), ("memo_val", _F64),
    ]


def bind(arrays: dict, rng: np.random.Generator, block_conc: float, recv_conc: float):
    """The kernel's state argument over ``arrays`` (one per name in
    ``ARRAYS``, written and read in place) and ``rng``'s bit generator,
    after checking each array's dtype (its field's element type) and
    layout (``la_deg`` in the shape of ``deg_hist``, the mixing matrices
    k x k, four priors, every degree a column of ``la_deg``), with an
    empty lgamma memo of its own.  The sizes are read off the arrays'
    shapes.  The state keeps the arrays and ``rng`` alive."""
    if sorted(arrays) != sorted(ARRAYS):
        raise TypeError(f"sweep state needs exactly the arrays {list(ARRAYS)}")
    for name, arr in arrays.items():
        want = np.dtype(ARRAYS[name]._type_)
        if arr.dtype != want or not arr.flags.c_contiguous:
            raise TypeError(f"sweep state array {name} must be C-contiguous {want}")
    if arrays["la_deg"].shape != arrays["deg_hist"].shape:
        raise TypeError("sweep state arrays la_deg and deg_hist must have one shape")
    k, hist_width = arrays["deg_hist"].shape
    for name, shape in (("prop", (k, k)), ("log_prop", (k, k)), ("prior", (4,))):
        if arrays[name].shape != shape:
            raise TypeError(f"sweep state array {name} must have shape {shape}")
    degrees = arrays["degrees"]
    if degrees.size and not (degrees.min() > 0 and degrees.max() < hist_width):
        raise TypeError("sweep state degrees must be columns 1.. of deg_hist")
    size = 1 << LGAMMA_MEMO_BITS
    arrays = dict(arrays, memo_key=np.zeros(size, np.uint64), memo_val=np.zeros(size))
    pointers = dict(SweepState._fields_)
    state = SweepState(
        n=arrays["labels"].size, k=k, hist_width=hist_width, n_degrees=degrees.size,
        memo_bits=LGAMMA_MEMO_BITS, block_conc=block_conc, recv_conc=recv_conc,
        bitgen=rng.bit_generator.ctypes.bit_generator,
        **{name: arr.ctypes.data_as(pointers[name]) for name, arr in arrays.items()},
    )
    state.arrays = arrays
    state.rng = rng
    return ctypes.byref(state)


def _cache_dirs() -> Iterator[Path]:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    yield Path(base) / "bvcm"
    import atexit
    import shutil
    import tempfile

    scratch = tempfile.mkdtemp(prefix="bvcm-")
    atexit.register(shutil.rmtree, scratch, True)
    yield Path(scratch)


def _cache_key() -> str:
    """sha256 over everything the kernel's code depends on."""
    return hashlib.sha256(
        SOURCE.read_bytes() + NPYRANDOM.read_bytes()
        + repr((FLAGS, sysconfig.get_platform(), np.__version__)).encode()
    ).hexdigest()


def _build() -> Path:
    """Path of the compiled kernel, compiling it unless already cached."""
    if not NPYRANDOM.is_file():
        raise OSError(f"numpy's random C library is missing: {NPYRANDOM}")
    key = _cache_key()
    name = f"_sweep-{key[:16]}.so"
    for cache in _cache_dirs():
        target = cache / name
        if target.exists():
            with contextlib.suppress(OSError):
                os.utime(target)
            return target
        import subprocess
        import tempfile

        try:
            cache.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix=".building-", suffix=".so", dir=cache)
        except OSError:
            continue
        os.close(fd)
        try:
            proc = subprocess.run(
                ["cc", *FLAGS, "-I", sysconfig.get_paths()["include"], "-I", np.get_include(),
                 "-o", tmp, str(SOURCE), str(NPYRANDOM), "-lm"],
                capture_output=True, text=True, timeout=120,
            )
            if proc.returncode:
                raise OSError(f"cc exited with {proc.returncode}: {proc.stderr.strip()[-400:]}")
            os.replace(tmp, target)
        except subprocess.SubprocessError as exc:  # the timeout
            raise OSError(f"cc failed: {exc}") from None
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        # Evict all but the most recently used kernels, best effort (another
        # process may be evicting too); a process that has one loaded keeps
        # its mapping.
        with contextlib.suppress(OSError):
            kernels = sorted(cache.glob("_sweep-*.so"), key=lambda p: p.stat().st_mtime_ns)
            for stale in kernels[:-KEEP_KERNELS]:
                stale.unlink()
        return target
    raise OSError("no writable directory for the compiled sweep")


@functools.lru_cache(maxsize=None)
def load() -> Optional[ctypes.CDLL]:
    """The kernel library, or None (with one warning per process) when it
    cannot be built or loaded."""
    try:
        lib = ctypes.CDLL(str(_build()))
    except OSError as exc:
        warnings.warn(
            f"compiled sweep unavailable, using the Python sweep: {exc}",
            RuntimeWarning, stacklevel=2,
        )
        return None
    state = ctypes.POINTER(SweepState)
    signatures = {
        "bvcm_sweep": ([state], _i64),
        "bvcm_lgamma": ([ctypes.c_double], ctypes.c_double),
        "bvcm_fsum": ([_F64, _i64], ctypes.c_double),
        "bvcm_aux": ([ctypes.c_void_p, _I64, _i64, _F64, _F64, _F64], None),
        "bvcm_aux_block": ([state, _i64], None),
        "bvcm_deg_table": ([state], None),
        "bvcm_propensity": ([state], None),
        "bvcm_log_prob": ([state], ctypes.c_double),
    }
    for name, (argtypes, restype) in signatures.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, restype
    return lib
