"""Environment fingerprint embedded in every benchmark result file.

The fingerprint answers "were these two result files produced under
comparable conditions?" — ``repro bench compare`` prints a warning when the
Python or NumPy versions differ, because modelled metric values are only
guaranteed bit-identical under identical numerics, and when one document
ran with the compiled kernels (:mod:`repro.backend.cext`) and the other
without, because their wall times then measure different code.
"""
from __future__ import annotations

import platform
import subprocess
import sys
from typing import Dict, Optional

import numpy as np

__all__ = ["environment_fingerprint", "git_revision"]


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """Current git commit (``<sha>[-dirty]``), or ``None`` outside a checkout."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=cwd, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
        return f"{sha}-dirty" if dirty else sha
    except (OSError, subprocess.SubprocessError):
        return None


def environment_fingerprint(cwd: Optional[str] = None) -> Dict[str, object]:
    """Stable description of the interpreter, libraries and machine."""
    from .. import __version__ as repro_version
    from ..backend import cext

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "cext": cext.status(),
        "repro": repro_version,
        "executable": sys.executable,
        "git": git_revision(cwd),
    }
