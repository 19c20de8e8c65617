"""Every strided window the package builds is read-only: each ``as_strided``
call in ``src/mricascade`` passes ``writeable=False``, so nothing can write
through windows whose elements overlap."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "mricascade").glob("*.py"))


def violations(source: str) -> list:
    """Each ``as_strided`` call in ``source`` without the keyword ``writeable=False``."""
    tree = ast.parse(source)
    names = {"as_strided"} | {
        a.asname for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for a in node.names if a.name == "as_strided" and a.asname
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            name = func.attr
        elif isinstance(func, ast.Name):
            name = func.id
        else:
            continue
        if name not in names:
            continue
        read_only = any(
            kw.arg == "writeable" and isinstance(kw.value, ast.Constant) and kw.value.value is False
            for kw in node.keywords
        )
        if not read_only:
            found.append(f"line {node.lineno}: {name}( without writeable=False")
    return found


def test_the_layers_module_is_checked():
    assert "layers.py" in {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_window_is_read_only(path):
    assert violations(path.read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "import numpy as np\nnp.lib.stride_tricks.as_strided(x, shape=s, strides=t)",
        "import numpy as np\nnp.lib.stride_tricks.as_strided(x, s, t, writeable=True)",
        "from numpy.lib.stride_tricks import as_strided\nas_strided(x, s, t, False, False)",
        "from numpy.lib.stride_tricks import as_strided\nas_strided(x, s, t, writeable=flag)",
        "from numpy.lib.stride_tricks import as_strided\nas_strided(x, s, t, **options)",
        "from numpy.lib.stride_tricks import as_strided as window\nwindow(x, s, t)",
        "from numpy.lib import stride_tricks as st\ny = st.as_strided(x, s, t, writeable=0)",
    ],
)
def test_checker_flags(source):
    assert violations(source)


def test_checker_passes_read_only_windows():
    source = (
        "import numpy as np\nfrom numpy.lib.stride_tricks import as_strided as window\n"
        "cols[...] = np.lib.stride_tricks.as_strided(xf[:, a:], shape=s, strides=t, writeable=False)\n"
        "y = window(x, s, t, writeable=False)\nz = np.lib.stride_tricks.sliding_window_view(x, 3)\n"
    )
    assert violations(source) == []
