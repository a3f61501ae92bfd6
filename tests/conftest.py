"""The compiled kernel for the backend-parity tests.

When homcert._kernels is not importable, `compiled` builds
src/homcert/_kernels.c with setuptools into a temporary directory, once
per session, and loads it without registering it, so the session keeps
the backend it started with.  A build failure errors the tests that use
it; it never skips them."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "homcert" / "_kernels.c"


def _build_and_load(workdir):
    script = (
        "from setuptools import Extension, setup\n"
        "setup(name='homcert-kernels', ext_modules=["
        f"Extension('homcert._kernels', [{str(SOURCE)!r}])])"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, "-q", "build_ext", "--build-lib", "lib",
         "--build-temp", "tmp"],
        cwd=workdir,
        capture_output=True,
        text=True,
    )
    if result.returncode != 0:
        pytest.fail(
            f"building {SOURCE} failed:\n{result.stdout}\n{result.stderr}",
            pytrace=False,
        )
    (so_path,) = (workdir / "lib" / "homcert").glob("_kernels*")
    spec = importlib.util.spec_from_file_location("homcert._kernels", so_path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    try:
        return importlib.import_module("homcert._kernels")
    except ImportError:
        return _build_and_load(tmp_path_factory.mktemp("kernels"))
