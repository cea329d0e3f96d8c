"""The malloc thresholds fixed at import keep large temporaries from faulting in again."""

import ctypes
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import ulsam

# after `import ulsam`, allocate, touch and free an 8 MiB array five times and
# print the minor faults each round added
_ROUNDS = """
import resource
import numpy as np
import ulsam

faults = []
for _ in range(5):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    a = np.empty(8 << 20, dtype=np.uint8)
    a.fill(1)
    del a
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are set on glibc only")
def test_freed_large_array_is_reused_without_fresh_faults():
    # a fresh interpreter, so no earlier test has already raised glibc's dynamic threshold
    src = str(Path(ulsam.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _ROUNDS], capture_output=True, text=True, env=env, check=True)
    faults = [int(f) for f in proc.stdout.split()]
    assert len(faults) == 5
    # the first round grows the heap; later rounds reuse it (unset, the second round faults in ~500 pages)
    assert sum(faults[1:]) < 100, faults


def test_libc_without_mallopt_is_left_alone(monkeypatch):
    calls = []

    class NoMallopt:
        def __getattr__(self, name):
            if name == "mallopt":
                raise AttributeError(name)
            return lambda *args: calls.append((name, args))

    monkeypatch.setattr(platform, "libc_ver", lambda *args, **kwargs: ("glibc", "2.36"))
    monkeypatch.setattr(ctypes, "CDLL", lambda *args, **kwargs: NoMallopt())
    assert ulsam._fix_malloc_thresholds() is False
    assert calls == []
