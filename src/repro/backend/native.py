"""Compiled partition and validation kernels (``_kernels.c``), built on
first use.

:func:`kernels` compiles the source with ``$CC`` (else ``cc``) into
``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``, else a per-user temp
dir), keyed by a hash of source, compiler, flags and platform, and loads it
with :mod:`ctypes`.  Builds rename a private temp file into place, so racing
first uses all load a complete library.  ``REPRO_NATIVE=0``, or no working
compiler or writable cache dir (logged once), leaves the NumPy kernels on.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import List, Optional

from repro.obs.log import get_logger

# ctypes, hashlib, platform and subprocess are imported on first use: they
# add ~15 ms to ``import repro``, which every CLI and server start pays.

#: Environment variable that disables the compiled kernels when set to ``0``.
ENV_VAR = "REPRO_NATIVE"
SOURCE = Path(__file__).with_name("_kernels.c")
CFLAGS = ("-O2", "-shared", "-fPIC")

_log = get_logger("backend.native")
_lock = threading.Lock()
_loaded = False
_library: Optional[ctypes.CDLL] = None


def kernels() -> Optional[ctypes.CDLL]:
    """The kernel library, or ``None`` when disabled (``REPRO_NATIVE=0``,
    read on every call) or unavailable.  Loads it once per process."""
    global _loaded, _library
    if os.environ.get(ENV_VAR, "").strip() == "0":
        return None
    with _lock:
        if not _loaded:
            _library, _loaded = load(), True
    return _library


def cache_dirs() -> List[Path]:
    """Candidate cache directories, in order of preference."""
    import tempfile

    base = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    user = f"repro-{os.getuid()}" if hasattr(os, "getuid") else "repro"
    return [Path(base) / "repro", Path(tempfile.gettempdir()) / user]


def load() -> Optional[ctypes.CDLL]:
    """Build (if needed) and load the library, bypassing the per-process
    cache of :func:`kernels`; ``None`` and one warning on failure."""
    import ctypes, hashlib, platform, shlex, subprocess, sys

    compiler = shlex.split(os.environ.get("CC") or "cc")
    identity = [" ".join(compiler + list(CFLAGS)), sys.platform, platform.machine()]
    errors = []
    for directory in cache_dirs():
        try:
            key = hashlib.sha256(SOURCE.read_bytes() + repr(identity).encode())
            path = directory / f"_kernels-{key.hexdigest()[:16]}.so"
            directory.mkdir(mode=0o700, parents=True, exist_ok=True)
            if hasattr(os, "getuid") and directory.stat().st_uid != os.getuid():
                raise OSError("owned by another user")
            if not path.exists():
                _build(compiler, path)
            return _bind(ctypes.CDLL(str(path)))
        except (OSError, subprocess.SubprocessError) as exc:
            errors.append(f"{directory}: {exc}")
    _log.warning("native kernels unavailable (%s); using NumPy kernels",
                 "; ".join(errors))
    return None


def _build(compiler: List[str], path: Path) -> None:
    import subprocess, tempfile

    fd, scratch = tempfile.mkstemp(suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        done = subprocess.run(
            [*compiler, *CFLAGS, "-o", scratch, str(SOURCE)],
            capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise OSError(f"compiler exited with {done.returncode}: "
                          f"{done.stderr.strip()[-300:]}")
        os.replace(scratch, path)
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)


def _bind(library: ctypes.CDLL) -> ctypes.CDLL:
    import ctypes

    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    library.repro_ofd_g3_rows.argtypes = [ptr, ptr, ptr, i64, i64, ptr, i64, ptr]
    library.repro_partition_refine.argtypes = [ptr, ptr, i64, ptr, i64, i64, ptr, ptr]
    library.repro_oc_holds_batch.argtypes = [ptr, ptr, i64, ptr, ptr, i64, ptr, ptr]
    library.repro_oc_lnds_count_batch.argtypes = [
        ptr, ptr, i64, ptr, ptr, i64, i64, ptr, ptr, ptr]
    for kernel in (library.repro_ofd_g3_rows, library.repro_partition_refine,
                   library.repro_oc_holds_batch,
                   library.repro_oc_lnds_count_batch):
        kernel.restype = i64
    return library
