"""The native kernel cache: private, race-free, and loud when refused."""

from __future__ import annotations

import os
import stat
import subprocess
import sys

import pytest

from faultlib import _cli_env, hard_problem
from repro.core import BnBParameters, BranchAndBound
from repro.core import _native

pytestmark = pytest.mark.skipif(
    not _native.native_available(), reason="native kernel unavailable"
)


@pytest.fixture
def fresh_loader(monkeypatch):
    """Forget the loaded kernel so ``load_native`` runs again."""
    monkeypatch.setattr(_native, "_LIB", None)
    monkeypatch.setattr(_native, "_LIB_TRIED", False)
    monkeypatch.setattr(_native, "_LIB_ERROR", None)
    return monkeypatch


def test_default_cache_is_per_user(monkeypatch):
    monkeypatch.delenv("REPRO_NATIVE_CACHE", raising=False)
    assert _native._cache_dir().endswith(f"repro-native-{os.geteuid()}")


def test_world_writable_cache_dir_is_refused(tmp_path, fresh_loader):
    planted = tmp_path / "cache"
    planted.mkdir()
    planted.chmod(0o777)
    fresh_loader.setenv("REPRO_NATIVE_CACHE", str(planted))
    assert _native.load_native() is None
    assert "group/other-writable" in _native.load_error()
    assert not any(planted.iterdir()), "nothing may be built or loaded there"
    result = BranchAndBound(BnBParameters(engine="array")).solve(
        hard_problem(seed=0)
    )
    assert result.stats.engine_path == "batch"
    assert result.stats.engine_fallback.startswith(
        "native kernel unavailable: cache directory"
    )


def test_symlinked_cache_dir_is_refused(tmp_path, fresh_loader):
    # The link's target passes the owner and mode checks; another user
    # who planted the link could still swap it after they ran.
    target = tmp_path / "private"
    target.mkdir(mode=0o700)
    link = tmp_path / "cache"
    link.symlink_to(target, target_is_directory=True)
    fresh_loader.setenv("REPRO_NATIVE_CACHE", str(link))
    assert _native.load_native() is None
    assert _native.load_error() == f"cache directory {link} is a symlink"
    assert not any(target.iterdir()), "nothing may be built or loaded there"


def test_symlinked_library_is_refused(tmp_path, fresh_loader):
    cache = tmp_path / "cache"
    cache.mkdir(mode=0o700)
    elsewhere = tmp_path / "elsewhere.so"
    elsewhere.write_bytes(b"not a library")
    elsewhere.chmod(0o755)
    (cache / _native.library_name()).symlink_to(elsewhere)
    fresh_loader.setenv("REPRO_NATIVE_CACHE", str(cache))
    assert _native.load_native() is None
    assert _native.load_error().endswith("is a symlink")


def test_group_writable_library_is_refused(tmp_path, fresh_loader):
    cache = tmp_path / "cache"
    cache.mkdir(mode=0o700)
    lib = cache / _native.library_name()
    lib.write_bytes(b"not a library")
    lib.chmod(0o775)
    fresh_loader.setenv("REPRO_NATIVE_CACHE", str(cache))
    assert _native.load_native() is None
    assert "kernel library" in _native.load_error()


def test_damaged_library_is_rebuilt(tmp_path, fresh_loader):
    cache = tmp_path / "cache"
    fresh_loader.setenv("REPRO_NATIVE_CACHE", str(cache))
    assert _native.load_native() is not None
    lib = cache / _native.library_name()
    # A library of the right name built from other source: ctx_size differs.
    # (Unlink first: the loaded kernel's pages map the old file.)
    lib.unlink()
    src = tmp_path / "other.c"
    src.write_text(
        "#include <stdint.h>\n"
        "int64_t ctx_size(void) { return 1; }\n"
        "void arena_drive(void *c) {}\n"
        "int64_t arena_prune_above(void *c, double t) { return 0; }\n"
    )
    subprocess.run(
        ["cc", "-shared", "-fPIC", "-o", str(lib), str(src)], check=True
    )
    lib.chmod(0o755)
    fresh_loader.setattr(_native, "_LIB", None)
    fresh_loader.setattr(_native, "_LIB_TRIED", False)
    assert _native.load_native() is not None, _native.load_error()


def test_two_processes_fill_one_empty_cache(tmp_path):
    cache = tmp_path / "shared"
    env = {**_cli_env(), "REPRO_NATIVE_CACHE": str(cache)}
    code = (
        "from repro.core import _native; import sys; "
        "sys.exit(0 if _native.load_native() is not None "
        "else _native.load_error())"
    )
    procs = [
        subprocess.Popen([sys.executable, "-c", code], env=env,
                         stderr=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    for proc in procs:
        _, err = proc.communicate(timeout=180)
        assert proc.returncode == 0, err
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700
    lib = cache / _native.library_name()
    assert not stat.S_IMODE(lib.stat().st_mode) & 0o022
    assert not [p for p in cache.iterdir() if ".tmp" in p.name]
