"""The engine is numpy-only and from scratch: every module of the package
imports only the standard library, numpy and the package itself, and none
uses ``numpy.fft``."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mricascade"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "mricascade"}


def violations(source: str) -> list:
    """Each import outside ``ALLOWED`` and each ``numpy.fft`` use in ``source``."""
    tree = ast.parse(source)
    numpy_names = {"numpy"} | {
        a.asname for node in ast.walk(tree) if isinstance(node, ast.Import)
        for a in node.names if a.name == "numpy" and a.asname
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module] + [f"{node.module}.{a.name}" for a in node.names if node.module == "numpy"]
        elif isinstance(node, ast.Attribute) and node.attr == "fft":
            if isinstance(node.value, ast.Name) and node.value.id in numpy_names:
                found.append(f"line {node.lineno}: {node.value.id}.fft")
            continue
        else:
            continue
        for name in modules:
            if name.split(".")[0] not in ALLOWED or name == "numpy.fft" or name.startswith("numpy.fft."):
                found.append(f"line {node.lineno}: import {name}")
    return found


SOURCES = sorted(SRC.glob("*.py"))


def test_every_module_is_checked():
    assert {p.name for p in SOURCES} >= {"__init__.py", "fourier.py", "sampling.py", "dclayer.py", "layers.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_is_numpy_only(path):
    assert violations(path.read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "import scipy.fft",
        "from torch import nn",
        "import numpy.fft",
        "from numpy.fft import fft2",
        "from numpy import fft",
        "import numpy as np\nnp.fft.fft2(a)",
        "import numpy as xp\ny = xp.fft.ifft2(a)",
    ],
)
def test_checker_flags(source):
    assert violations(source)


def test_checker_passes_stdlib_numpy_and_the_package():
    source = (
        "import math\nimport numpy as np\nfrom functools import lru_cache\n"
        "from . import fourier\nfrom .fourier import fft2\nfrom mricascade.errors import InvalidShapeError\n"
        "np.linalg.norm(a)\nfourier.fft2(x)\n"
    )
    assert violations(source) == []
