"""The compiled sweep (``bvcm/_sweep.c``) against its Python reference.

Both backends must give bit-identical chains, so every comparison here
is exact.  These tests need a C compiler; where one exists, the kernel
must build.
"""

import ctypes
import math
import os
import re
import shutil
import warnings

import numpy as np
import pytest

from bvcm import GibbsConfig, GibbsSampler, run_gibbs
from bvcm import _sweep
from bvcm.gibbs import aux_update_alpha_theta

from oracles import aux_update_cases, random_network, sweep_backends

pytestmark = pytest.mark.skipif(
    shutil.which("cc") is None, reason="no C compiler: only the Python sweep runs here"
)


@pytest.fixture
def fresh_loader():
    """load() forgets its library before and after the test."""
    _sweep.load.cache_clear()
    yield
    _sweep.load.cache_clear()


def test_lgamma_port_matches_math_lgamma():
    lgamma = _sweep.load().bvcm_lgamma
    rng = np.random.default_rng(3)
    grid = np.concatenate([
        [1e-300, 1e-25, 1e-21, 1e-20, 3e-20, 1e-10, 1e-6],   # tiny-argument branch
        rng.uniform(0.0, 5.0, 3000),                          # x < 5: direct Lanczos sum
        np.exp(rng.uniform(np.log(5.0), np.log(1e7), 3000)),  # x >= 5: rescaled sum
        np.arange(1, 3001, dtype=float),                      # integers (1 and 2 exactly 0)
        np.arange(3000) + 0.5,
        1.0 + np.arange(3000) + 0.5,                          # omega + counts
        4.7316 + np.arange(3000),                             # theta + degree totals
        0.0137 + np.arange(3000),
    ])
    bad = [x for x in grid.tolist() if lgamma(x) != math.lgamma(x)]
    assert not bad, bad[:5]


def test_fsum_port_matches_math_fsum():
    """The kernel's math.fsum on sums whose last bit needs every partial,
    CPython's half-even correction among them."""
    fsum = _sweep.load().bvcm_fsum
    rng = np.random.default_rng(6)
    cases = [
        [], [0.0], [-0.0, 0.0], [1e-16, 1.0, 1e16], [1e16, 1.0, 1e-16],
        [1.0, 1e100, 1.0, -1e100], [2.0 ** 53, 1.0, 2.0 ** -60], [2.0 ** 53, -1.0, -(2.0 ** -60)],
        [0.1] * 10, [1.0, -(2.0 ** -54), -(2.0 ** -110)], [1.7976931348623157e308, -1e292],
    ]
    for _ in range(3000):
        n = int(rng.integers(1, 40))
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 21, n)
        if rng.random() < 0.5:  # cancellation down to the low partials
            x = np.concatenate([x, -x[: n // 2] * (1 + 2.0 ** -52)])
        cases.append(rng.permutation(x).tolist())
    for xs in cases:
        arr = (ctypes.c_double * max(len(xs), 1))(*xs)
        assert fsum(arr, len(xs)).hex() == math.fsum(xs).hex(), xs


def test_kernel_redraw_is_generator_dirichlet():
    """The kernel's mixing-matrix redraw against Generator.dirichlet on a
    copy of the generator: the same bits, in prop and in log_prop (libm
    log of max(p, 1e-12)), and the same generator state after.  Empty
    rows under recv_conc < 0.1 take numpy's stick-breaking branch,
    recv_conc = 0.1 the gamma branch at its edge."""
    rng = np.random.default_rng(14)
    branches = set()
    for case in range(40):
        k = 1 + case % 5
        recv_conc = (0.01, 0.05, 0.0999, 0.1, 0.3, 1.0, 30.0)[case % 7]
        net, _ = random_network(rng, k, m=int(rng.integers(3, 30)), n_pool=12, max_arity=3)
        sampler = GibbsSampler(net, GibbsConfig(k=k, iterations=1, seed=case, recv_conc=recv_conc))
        assert sampler.sweep_backend == "c"
        for _ in range(30):
            sampler.sweep()
            ref = np.random.default_rng()
            ref.bit_generator.state = sampler.rng.bit_generator.state
            conc = sampler.stats.pair + recv_conc
            want = np.array([ref.dirichlet(row) for row in conc])
            got = sampler.update_propensity()
            assert got.tobytes() == want.tobytes() == sampler.prop.tobytes(), case
            logs = [[math.log(max(p, 1e-12)) for p in row] for row in want.tolist()]
            assert sampler.log_prop.tobytes() == np.array(logs).tobytes(), case
            assert sampler.rng.bit_generator.state == ref.bit_generator.state, case
            branches.update("small" if row.max() < 0.1 else "gamma" for row in conc)
    assert branches == {"small", "gamma"}


def test_backends_give_identical_chains():
    """50 iterations (sweep, aux update, degree table, mixing matrix) on
    random graphs with k = 1..5: labels and every count identical.  The
    last configuration's recv_conc 0.05 sends empty mixing-matrix rows
    through Generator.dirichlet's small-concentration branch."""
    rng = np.random.default_rng(8)
    loops = repeats = small_rows = 0
    configs = [(1 + trial % 5, 1.0) for trial in range(25)] + [(3, 0.05)]
    for trial, (k, recv_conc) in enumerate(configs):
        net, _ = random_network(rng, k, m=int(rng.integers(3, 40)), n_pool=10, max_arity=3)
        s, r = net.pairs()
        loops += int((s == r).sum())
        ends = net.offsets
        repeats += sum(
            len(set(net.receivers[a:b].tolist())) < b - a for a, b in zip(ends[:-1], ends[1:])
        )
        cfg = GibbsConfig(k=k, iterations=1, seed=trial, recv_conc=recv_conc)
        samplers = [GibbsSampler(net, cfg) for _ in sweep_backends()]
        assert [x.sweep_backend for x in samplers] == ["c", "python"]
        for _ in range(50):
            for x in samplers:
                x.iteration()
            if recv_conc < 0.1:
                small_rows += int((samplers[0].stats.pair.sum(axis=1) == 0).sum())
        c, py = samplers
        assert np.array_equal(c.labels, py.labels)
        for name in ("block_sizes", "block_deg", "initiations", "pair", "deg_hist"):
            assert np.array_equal(getattr(c.stats, name), getattr(py.stats, name)), name
        for name in ("alpha", "theta", "prop"):
            assert np.array_equal(getattr(c, name), getattr(py, name)), name
        assert c.nodes_moved == py.nodes_moved
        assert c.log_prob() == py.log_prob()
    assert loops and repeats  # self-pairs and repeated receivers were covered
    assert small_rows


def _ctype(decl: str):
    """The ctypes type load() and SweepState must give a C declaration's
    type ("const int64_t *out_off" -> POINTER(c_int64)); the bit
    generator is the one untyped pointer."""
    base = re.match(r"\s*(?:const\s+)?(\w+)", decl).group(1)
    if "*" in decl:
        if base == "bitgen_t":
            return ctypes.c_void_p
        return ctypes.POINTER(_ctype(base))
    return {"double": ctypes.c_double, "int64_t": ctypes.c_int64, "uint64_t": ctypes.c_uint64,
            "void": None, "SweepState": _sweep.SweepState}[base]


def test_state_mirror_matches_the_c_struct():
    """SweepState in _sweep.py lists the C struct's fields in order, each
    pointer typed by its element type; a drifted mirror would only show
    as wrong counts or a crash."""
    source = _sweep.SOURCE.read_text()
    body = re.search(r"typedef struct \{(.*?)\} SweepState;", source, re.S).group(1)
    body = re.sub(r"/\*.*?\*/", "", body, flags=re.S)
    fields = []
    for decl in filter(str.strip, body.split(";")):
        # "const int64_t *out_off, *out_idx" declares two pointers: each
        # later declarator takes the first one's type.
        first, *rest = decl.split(",")
        for part in [first, *(first.split("*")[0] + p for p in rest)]:
            fields.append((re.search(r"(\w+)\s*$", part).group(1), _ctype(part)))
    assert fields == _sweep.SweepState._fields_
    assert ("out_idx", ctypes.POINTER(ctypes.c_int64)) in fields
    assert ("prop", ctypes.POINTER(ctypes.c_double)) in fields


def test_kernel_signatures_match_the_c_definitions():
    """Every function _sweep.c exports has load()'s argtypes and restype,
    parameter by parameter, pointers by their element type; a stale
    table would make ctypes pass a wrong argument list without any
    error."""
    source = re.sub(r"/\*.*?\*/", "", _sweep.SOURCE.read_text(), flags=re.S)
    defs = re.findall(r"^(?!static\b)(\w+)\s+(\w+)\(([^)]*)\)\s*\{", source, re.M)
    lib = _sweep.load()
    assert len(defs) >= 8
    for ret, name, params in defs:
        fn = getattr(lib, name)
        params = [p for p in map(str.strip, params.split(",")) if p not in ("", "void")]
        assert fn.restype is _ctype(ret), name
        assert fn.argtypes is not None, name
        assert list(fn.argtypes) == [_ctype(param) for param in params], name


def test_bind_needs_la_deg_in_the_deg_hist_layout():
    """The kernel indexes the degree table and the degree histogram
    with one row length, so bind refuses tables of two shapes."""
    rng = np.random.default_rng(13)
    net, _ = random_network(rng, 2, m=20, n_pool=8)
    sampler = GibbsSampler(net, GibbsConfig(k=2, iterations=1, seed=3))
    arrays = dict(sampler._state._obj.arrays)
    del arrays["memo_key"], arrays["memo_val"]
    assert arrays["la_deg"].shape == sampler.stats.deg_hist.shape
    _sweep.bind(arrays, sampler.rng, block_conc=1.0, recv_conc=1.0)
    arrays["la_deg"] = np.zeros((2, arrays["deg_hist"].shape[1] - 1))
    with pytest.raises(TypeError, match="la_deg and deg_hist"):
        _sweep.bind(arrays, sampler.rng, block_conc=1.0, recv_conc=1.0)


def test_sweep_returns_moves():
    rng = np.random.default_rng(9)
    net, _ = random_network(rng, 3, m=30, n_pool=12, max_arity=2)
    for backend in sweep_backends():
        sampler = GibbsSampler(net, GibbsConfig(k=3, iterations=1, seed=1))
        assert sampler.sweep_backend == backend
        total = 0
        for _ in range(10):
            before = np.array(sampler.labels)
            moved = sampler.sweep()
            assert moved == int((before != sampler.labels).sum())
            total += moved
        assert sampler.nodes_moved == total


def test_sweep_draws_the_stream_of_random_n():
    """On either backend a sweep takes Generator.random(n) off the
    sampler's stream and nothing else: its bit generator ends where a
    copy restored to the pre-sweep state and advanced by random(n) does."""
    rng = np.random.default_rng(10)
    net, _ = random_network(rng, 3, m=30, n_pool=12, max_arity=2)
    for backend in sweep_backends():
        sampler = GibbsSampler(net, GibbsConfig(k=3, iterations=1, seed=2))
        assert sampler.sweep_backend == backend
        for _ in range(3):
            ref = np.random.Generator(type(sampler.rng.bit_generator)())
            ref.bit_generator.state = sampler.rng.bit_generator.state
            sampler.sweep()
            ref.random(sampler.n)
            assert sampler.rng.bit_generator.state == ref.bit_generator.state


def test_lgamma_memo_evictions_keep_chains_identical(monkeypatch):
    """A run that computes more distinct lgamma arguments than the
    kernel's memo holds, so slots are overwritten: the chains are still
    identical.  The count comes from the Python reference."""
    rng = np.random.default_rng(12)
    net, _ = random_network(rng, 3, m=600, n_pool=250, max_arity=3)
    cfg = GibbsConfig(k=3, iterations=30, seed=4)
    args = set()
    lgamma = math.lgamma

    def counting_lgamma(x):
        args.add(x)
        return lgamma(x)

    chains = []
    for backend in sweep_backends():
        if backend == "python":
            monkeypatch.setattr(math, "lgamma", counting_lgamma)
        chains.append(run_gibbs(net, cfg))
    assert len(args) > 1 << _sweep.LGAMMA_MEMO_BITS
    c, py = chains
    assert (c.sweep_backend, py.sweep_backend) == ("c", "python")
    assert c.nodes_moved == py.nodes_moved
    for name in ("assignments", "alphas", "thetas", "props", "log_probs"):
        assert np.array_equal(getattr(c, name), getattr(py, name)), name


def test_kernel_aux_update_matches_python_reference():
    """The kernel's (alpha, theta) update on the histograms of
    test_gibbs.py's degree-list oracle test: the same values and the
    same generator state as aux_update_alpha_theta."""
    lib = _sweep.load()
    for case, _, hist, args in aux_update_cases():
        r_py, r_c = np.random.default_rng(case), np.random.default_rng(case)
        expected = aux_update_alpha_theta(hist, *args, r_py)
        alpha, theta, alpha_prior, theta_prior = args
        hist = np.ascontiguousarray(hist, dtype=np.int64)
        out = (ctypes.c_double(alpha), ctypes.c_double(theta))
        lib.bvcm_aux(
            r_c.bit_generator.ctypes.bit_generator,
            hist.ctypes.data_as(ctypes.POINTER(ctypes.c_int64)), hist.size,
            (ctypes.c_double * 4)(*alpha_prior, *theta_prior), *map(ctypes.byref, out),
        )
        out = [x.value for x in out]
        assert (out[0], out[1]) == expected, case
        assert r_c.bit_generator.state == r_py.bit_generator.state, case


def test_fallback_warns_once_and_matches_the_compiled_chain(tmp_path, fresh_loader):
    rng = np.random.default_rng(10)
    net, _ = random_network(rng, 3, m=40, n_pool=15, max_arity=2)
    cfg = GibbsConfig(k=3, iterations=30, burn_in=5, seed=11, init="warm")
    compiled = run_gibbs(net, cfg)
    assert compiled.sweep_backend == "c"

    def no_compiler():
        raise FileNotFoundError("cc")

    missing = tmp_path / "libnpyrandom.a"
    breakages = [
        ("_build", no_compiler, "cc"),
        ("NPYRANDOM", missing, f"numpy's random C library is missing: {missing}"),
    ]
    for attr, value, reason in breakages:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_sweep, attr, value)
            _sweep.load.cache_clear()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                chains = [run_gibbs(net, cfg) for _ in range(2)]
        assert [str(w.message) for w in caught if w.category is RuntimeWarning] == [
            f"compiled sweep unavailable, using the Python sweep: {reason}"
        ]
        for chain in chains:
            assert chain.sweep_backend == "python"
            assert chain.nodes_moved == compiled.nodes_moved
            for name in ("assignments", "alphas", "thetas", "props", "log_probs"):
                assert np.array_equal(getattr(chain, name), getattr(compiled, name)), name


def test_cache_key_covers_numpy_random(monkeypatch, tmp_path):
    """A kernel linked to another numpy's random library is not reused."""
    original = _sweep.NPYRANDOM.read_bytes()
    lib = tmp_path / "libnpyrandom.a"
    lib.write_bytes(original)
    monkeypatch.setattr(_sweep, "NPYRANDOM", lib)
    key = _sweep._cache_key()
    lib.write_bytes(original + b"\0")
    assert _sweep._cache_key() != key
    lib.write_bytes(original)
    assert _sweep._cache_key() == key
    monkeypatch.setattr(np, "__version__", np.__version__ + ".post1")
    assert _sweep._cache_key() != key


def test_kernel_is_cached_by_content(monkeypatch, tmp_path, fresh_loader):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    first = _sweep._build()
    assert first.parent == tmp_path / "bvcm"
    assert first.name.startswith("_sweep-") and first.suffix == ".so"
    inode = first.stat().st_ino
    # Not rebuilt: a build renames a new file into place.
    assert _sweep._build() == first and first.stat().st_ino == inode
    assert [p.name for p in first.parent.iterdir()] == [first.name]  # no temp left


def test_build_keeps_the_recent_kernels(monkeypatch, tmp_path):
    """Kernels under other keys stay cached, up to KEEP_KERNELS of them;
    a build evicts the least recently used, and a cache hit counts as a
    use."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    cache = tmp_path / "bvcm"

    def build(key):
        monkeypatch.setattr(_sweep, "_cache_key", lambda: key * 64)
        return _sweep._build().name

    first, second = build("a"), build("b")
    assert sorted(p.name for p in cache.iterdir()) == [first, second]
    assert _sweep.KEEP_KERNELS == 4
    third, fourth = build("c"), build("d")
    os.utime(cache / first, ns=(1, 1))
    os.utime(cache / second, ns=(2, 2))
    assert build("a") == first  # a hit makes the first kernel the newest
    fifth = build("e")
    assert sorted(p.name for p in cache.iterdir()) == sorted([first, third, fourth, fifth])


def test_unwritable_cache_builds_in_a_temporary_directory(monkeypatch, tmp_path, fresh_loader):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    built = _sweep._build()
    assert built.exists() and tmp_path not in built.parents
    assert _sweep.load() is not None
