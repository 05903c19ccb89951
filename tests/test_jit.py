"""The optional numba backend gate (repro.engines._jit).

The module decides at import time; these tests reload it under forced
environments so both decisions are covered wherever the suite runs —
with or without numba installed.  ``REPRO_JIT_THREADS`` parsing and
the threaded-dispatch gating ride the same harness.
"""

import importlib
import os
import sys
import warnings

import pytest

import repro.engines._jit as _jit

_SENTINEL = object()


def _probe(jit_env, numba_module, threads_env=None):
    """Reload ``_jit`` under a forced env/numba combination.

    Returns a snapshot of the reloaded module's decision (reload hands
    back the *same* module object, so state must be captured before
    the restoring reload in the ``finally`` block re-executes it).
    """
    old_env = os.environ.get("REPRO_JIT")
    old_threads = os.environ.get("REPRO_JIT_THREADS")
    old_numba = sys.modules.get("numba", _SENTINEL)
    if jit_env is None:
        os.environ.pop("REPRO_JIT", None)
    else:
        os.environ["REPRO_JIT"] = jit_env
    if threads_env is None:
        os.environ.pop("REPRO_JIT_THREADS", None)
    else:
        os.environ["REPRO_JIT_THREADS"] = threads_env
    if numba_module is not _SENTINEL:
        sys.modules["numba"] = numba_module
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            module = importlib.reload(_jit)

        def kernel(x):
            return x + 1

        compiled = module.compile_kernel(kernel)
        threaded = module.compile_kernel(kernel, parallel=True)
        return {
            "requested": module.REQUESTED,
            "have_numba": module.HAVE_NUMBA,
            "enabled": module.ENABLED,
            "threads": module.THREADS,
            "threaded": module.THREADED,
            "configure": module.configure_threads,
            "warnings": [str(w.message) for w in caught],
            "passthrough": compiled is kernel,
            "passthrough_parallel": threaded is kernel,
            "result": compiled(41),
        }
    finally:
        if old_env is None:
            os.environ.pop("REPRO_JIT", None)
        else:
            os.environ["REPRO_JIT"] = old_env
        if old_threads is None:
            os.environ.pop("REPRO_JIT_THREADS", None)
        else:
            os.environ["REPRO_JIT_THREADS"] = old_threads
        if old_numba is _SENTINEL:
            sys.modules.pop("numba", None)
        else:
            sys.modules["numba"] = old_numba
        importlib.reload(_jit)


def test_requested_without_numba_warns_and_falls_back():
    # sys.modules[name] = None makes ``import numba`` raise ImportError.
    probe = _probe("1", None)
    assert probe["requested"]
    assert not probe["have_numba"]
    assert not probe["enabled"]
    assert any("falling back" in message for message in probe["warnings"])
    # Disabled -> compile_kernel is the identity, not a numba wrapper,
    # for the serial and the threaded build alike.
    assert probe["passthrough"]
    assert probe["passthrough_parallel"]


def test_not_requested_is_silent_and_disabled():
    probe = _probe(None, None)
    assert not probe["requested"]
    assert not probe["enabled"]
    assert not probe["warnings"]
    assert probe["passthrough"]
    assert probe["passthrough_parallel"]


@pytest.mark.skipif(not _jit.HAVE_NUMBA, reason="numba not installed")
def test_requested_with_numba_compiles():
    probe = _probe("1", _SENTINEL)
    assert probe["enabled"]
    assert not probe["warnings"]
    assert not probe["passthrough"]
    assert not probe["passthrough_parallel"]
    assert probe["result"] == 42


@pytest.mark.skipif(not _jit.HAVE_NUMBA, reason="numba not installed")
def test_one_source_compiles_serial_and_threaded(monkeypatch):
    # Each fused kernel has one impl; _kernels(False) builds it without
    # parallel=, _kernels(True) with it, from a renamed copy so the two
    # builds keep separate on-disk cache entries.
    monkeypatch.setattr(_jit, "ENABLED", True)
    monkeypatch.setattr(_jit, "_compiled", {})
    impls = (_jit.walk_steps_impl, _jit.tree_build_impl,
             _jit.reverse_blocks_impl)
    for impl, serial, threaded in zip(impls, _jit._kernels(False),
                                      _jit._kernels(True)):
        assert serial.py_func is impl
        assert threaded.py_func.__code__ is impl.__code__
        assert not serial.targetoptions.get("parallel")
        assert threaded.targetoptions.get("parallel")
        assert (serial._cache._cache_file._index_path
                != threaded._cache._cache_file._index_path)


class TestThreadsParsing:
    def test_unset_means_serial(self):
        probe = _probe(None, None)
        assert probe["threads"] == 0
        assert not probe["threaded"]

    def test_empty_means_serial(self):
        probe = _probe(None, None, threads_env="")
        assert probe["threads"] == 0
        assert not probe["threaded"]

    def test_garbage_warns_and_falls_back(self):
        probe = _probe("1", None, threads_env="lots")
        assert probe["threads"] == 0
        assert not probe["threaded"]
        assert any("REPRO_JIT_THREADS" in m for m in probe["warnings"])

    def test_negative_clamps_to_serial(self):
        probe = _probe("1", None, threads_env="-3")
        assert probe["threads"] == 0
        assert not probe["threaded"]

    def test_threads_without_jit_enabled_warns(self):
        # REPRO_JIT_THREADS=2 but the kernels never compiled (numba
        # missing here): the request is inert and says so once.
        probe = _probe("1", None, threads_env="2")
        assert not probe["enabled"]
        assert not probe["threaded"]
        assert any("REPRO_JIT_THREADS" in m and "single-threaded" in m
                   for m in probe["warnings"])

    def test_threads_without_jit_request_still_parses_and_warns(self):
        # Threads set but REPRO_JIT unset: count is parsed (so flipping
        # REPRO_JIT=1 on later picks it up) but no kernels exist, and
        # the inert request is called out just like the numba-less case.
        probe = _probe(None, None, threads_env="4")
        assert not probe["requested"]
        assert probe["threads"] == 4
        assert not probe["threaded"]
        assert any("REPRO_JIT_THREADS" in m for m in probe["warnings"])


class TestConfigureThreads:
    def test_refuses_without_numba(self):
        # configure_threads is the bench hook for thread-scaling lanes;
        # on a numba-less host it reports failure instead of lying.
        probe = _probe("1", None, threads_env="0")
        assert probe["configure"](2) is False

    @pytest.mark.skipif(_jit.ENABLED, reason="compiled backend active")
    def test_refusal_leaves_module_state_alone(self):
        before = (_jit.THREADS, _jit.THREADED, _jit.walk_kernel)
        assert _jit.configure_threads(2) is False
        assert (_jit.THREADS, _jit.THREADED, _jit.walk_kernel) == before

    @pytest.mark.skipif(not _jit.HAVE_NUMBA, reason="numba not installed")
    def test_roundtrip_with_numba(self):
        # Flip to 1 thread (always within the launched pool) and back.
        import numba

        start = (_jit.THREADS, _jit.THREADED)
        try:
            assert _jit.configure_threads(1) is True
            assert _jit.THREADED and _jit.THREADS == 1
            assert _jit.walk_kernel is not None
            too_many = int(numba.config.NUMBA_NUM_THREADS) + 1
            assert _jit.configure_threads(too_many) is False
            assert _jit.THREADS == 1  # refusal leaves state alone
            assert _jit.configure_threads(0) is True
            assert not _jit.THREADED and _jit.THREADS == 0
        finally:
            _jit.configure_threads(start[0] if start[1] else 0)
