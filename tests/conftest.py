"""Shared fixtures: repository paths and the stock interaction kernel."""
from pathlib import Path

import pytest

from pchaos.core import KernelSpec

REPO_ROOT = Path(__file__).resolve().parents[1]
KERNEL_PATH = REPO_ROOT / "kernels" / "default.txt"
RATES_CONFIG_PATH = REPO_ROOT / "configs" / "rates.cfg"

# a kernel with mode-0 and several higher b and khat terms, cos and sin
RICH_KERNEL = KernelSpec.from_tables(
    b={0: (0.1, 0.0), 1: (0.3, -0.2), 3: (0.05, 0.1)},
    khat={1: (0.2, 0.25), 2: (-0.1, 0.15)},
)


@pytest.fixture(scope="session")
def default_kernel() -> KernelSpec:
    """The stock kernel shipped with the repository: one cosine confinement
    mode plus one sine interaction mode, sup-norm bound 1."""
    return KernelSpec.from_file(KERNEL_PATH)
