"""The compiled-kernel loader (``repro.backend.native``) and its fallback.

A host without a compiler or a writable cache directory, or one running
with ``REPRO_NATIVE=0``, must fall back to the NumPy kernels with one log
line and identical results; processes racing through first use must all
load a valid library; importing ``repro`` must never compile anything.
"""

import json
import logging
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from repro.backend import get_backend, native

pytest.importorskip("numpy")

SRC = Path(__file__).resolve().parents[2] / "src"

needs_compiler = pytest.mark.skipif(
    shutil.which(os.environ.get("CC") or "cc") is None, reason="no C compiler"
)

#: Runs a discovery whose batch kernels hit the native path and prints the
#: result with the loader's state; logging goes to stderr.
_DISCOVER_SCRIPT = """
import json, logging
logging.basicConfig(level=logging.WARNING, format="%(name)s: %(message)s")
from repro import discover_aods
from repro.backend import native
from repro.dataset.generators import generate_flight_like
table = generate_flight_like(600, num_attributes=6, error_rate=0.1, seed=4).relation
result = discover_aods(table, threshold=0.1, backend="numpy")
print(json.dumps({
    "native": native.kernels() is not None,
    "ocs": sorted(str(d) for d in result.ocs),
    "ofds": sorted(str(d) for d in result.ofds),
}))
"""


def _env(**updates):
    """This process's environment with the native switch unset."""
    env = {k: v for k, v in os.environ.items() if k != native.ENV_VAR}
    env.update(updates)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    return env


def _run(script, **env_updates):
    done = subprocess.run(
        [sys.executable, "-c", script], env=_env(**env_updates),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done


def _native_warnings(caplog):
    return [r for r in caplog.records if r.name == "repro.backend.native"]


def test_repro_native_0_forces_fallback(monkeypatch):
    monkeypatch.setenv(native.ENV_VAR, "0")
    assert native.kernels() is None


@needs_compiler
def test_fallback_results_match_native(monkeypatch):
    backend = get_backend("numpy")
    classes = [list(range(i, i + 5)) for i in range(0, 300, 5)]
    a = backend.to_native([(7 * i) % 11 for i in range(300)])
    b = backend.to_native([(5 * i) % 13 for i in range(300)])
    outcomes = []
    for switch in ("1", "0"):
        monkeypatch.setenv(native.ENV_VAR, switch)
        assert (native.kernels() is None) == (switch == "0")
        outcomes.append((
            backend.oc_optimal_removal_count_batch(classes, [(a, b), (b, a)]),
            backend.ofd_removal_batch(classes, [a, b], 40),
        ))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("no_compiler", ["missing-cc", "empty-path"])
def test_no_compiler_falls_back_with_one_warning(
    monkeypatch, tmp_path, caplog, no_compiler
):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    if no_compiler == "missing-cc":
        monkeypatch.setenv("CC", str(tmp_path / "no-such-cc"))
    else:
        monkeypatch.delenv("CC", raising=False)
        monkeypatch.setenv("PATH", "")
    with caplog.at_level(logging.WARNING, logger="repro.backend.native"):
        assert native.load() is None
    warnings = _native_warnings(caplog)
    assert len(warnings) == 1
    assert "using NumPy kernels" in warnings[0].getMessage()
    assert not list(tmp_path.rglob("*.so")) and not list(tmp_path.rglob("*.tmp"))


def test_unwritable_cache_dirs_fall_back(monkeypatch, tmp_path, caplog):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker / "xdg"))
    monkeypatch.setattr(tempfile, "tempdir", str(blocker / "tmp"))
    with caplog.at_level(logging.WARNING, logger="repro.backend.native"):
        assert native.load() is None
    assert len(_native_warnings(caplog)) == 1


@needs_compiler
def test_unwritable_user_cache_uses_the_temp_dir(monkeypatch, tmp_path):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker / "xdg"))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    assert native.load() is not None
    built = list((tmp_path / "tmp").rglob("_kernels-*.so"))
    assert len(built) == 1


def test_no_compiler_discovery_is_identical(tmp_path):
    """End to end in a fresh interpreter: the fallback logs once and the
    discovered dependencies equal this process's."""
    done = _run(
        _DISCOVER_SCRIPT,
        CC=str(tmp_path / "no-such-cc"),
        XDG_CACHE_HOME=str(tmp_path / "xdg"),
        TMPDIR=str(tmp_path),
    )
    fallback = json.loads(done.stdout)
    assert fallback["native"] is False
    logged = [
        line for line in done.stderr.splitlines()
        if line.startswith("repro.backend.native")
    ]
    assert len(logged) == 1, done.stderr
    reference = json.loads(_run(_DISCOVER_SCRIPT).stdout)
    assert {k: v for k, v in fallback.items() if k != "native"} == {
        k: v for k, v in reference.items() if k != "native"
    }


@needs_compiler
def test_concurrent_first_use_loads_one_valid_library(tmp_path):
    env = _env(XDG_CACHE_HOME=str(tmp_path / "xdg"))
    racers = [
        subprocess.Popen(
            [sys.executable, "-c", _DISCOVER_SCRIPT], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(2)
    ]
    outputs = []
    for racer in racers:
        stdout, stderr = racer.communicate(timeout=300)
        assert racer.returncode == 0, stderr
        outputs.append(json.loads(stdout))
    assert all(output["native"] for output in outputs)
    assert outputs[0] == outputs[1]
    cache = tmp_path / "xdg" / "repro"
    assert len(list(cache.glob("_kernels-*.so"))) == 1
    assert not list(cache.glob("*.tmp"))


def test_importing_repro_compiles_nothing(tmp_path):
    script = "import repro, repro.backend.numpy_backend, repro.cli"
    _run(script, XDG_CACHE_HOME=str(tmp_path / "xdg"), TMPDIR=str(tmp_path))
    assert not list(tmp_path.rglob("*.so"))
    assert not (tmp_path / "xdg").exists()
