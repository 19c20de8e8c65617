"""Input-fuzz gate: every file the command line reads, mutated, maps to a
documented exit code.

A 1/2/2 CSC1 checkpoint, a 16x16 CXT1 image, a 16-line CXT1 mask file and a
dataset manifest are mutated one at a time (a single byte set to any value, a
truncation, a 4-byte overwrite or appended bytes), and every command that
reads the mutated file runs in-process through ``cli.main``. Each run must
exit 0 or 2 (or 3, training divergence, for ``train``); an exit 2 prints
exactly one ``error:`` line on stderr and writes no output file, an exit 0
of ``reconstruct`` writes a finite zero-fill and reconstruction, and an exit
0 of ``train`` writes a checkpoint that loads. A CSC1 or CXT1 file with bytes
appended always exits 2. A mutated checkpoint or image either fails to load
with a typed input error or loads to finite arrays.
"""

import contextlib
import io
import shutil

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mricascade import (
    CheckpointFormatError,
    ComplexImage,
    InvalidParameterError,
    InvalidShapeError,
    Rng,
    build_model,
    generate_mask,
    load_checkpoint,
    save_checkpoint,
    tensorcore,
)
from mricascade.cli import main
from mricascade.tensorcore import load_image, load_tensor, save_image, save_tensor

CKPT, IMAGE, MASK, MANIFEST = "m.csc1", "img.cxt", "mask.cxt", "manifest.txt"
KINDS = ("byte", "truncate", "overwrite4", "append")


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """The bytes of each valid input file, by name."""
    d = tmp_path_factory.mktemp("pristine")
    save_checkpoint(build_model(Rng(0), 1, 2, 2), d / CKPT)
    save_image(d / IMAGE, ComplexImage(Rng(1).gen.standard_normal((2, 16, 16)).astype(np.float32)))
    save_tensor(d / MASK, generate_mask(Rng(2), 16, 16, 3.0, 2).to_tensor())
    (d / MANIFEST).write_text(f"{IMAGE},train\n{IMAGE},test\n")
    return {name: (d / name).read_bytes() for name in (CKPT, IMAGE, MASK, MANIFEST)}


def mutate(raw: bytes, kind: str, pos: int, payload: bytes) -> bytes:
    if kind == "append":
        return raw + payload
    if kind == "truncate":
        return raw[: pos % len(raw)]
    if kind == "byte":
        i = pos % len(raw)
        return raw[:i] + payload[:1] + raw[i + 1:]
    i = pos % (len(raw) - 3)
    return raw[:i] + (payload * 4)[:4] + raw[i + 4:]


def commands(d, name):
    """argv of every command that reads the file ``name``, by command."""
    flags = ["--acceleration", "3", "--n-low", "2"]
    reconstruct = ["reconstruct", "--checkpoint", str(d / CKPT), "--image", str(d / IMAGE),
                   "--out", str(d / "out")] + flags
    every = {
        "reconstruct": reconstruct,
        "reconstruct --mask-file": reconstruct + ["--mask-file", str(d / MASK)],
        "evaluate": ["evaluate", "--checkpoint", str(d / CKPT), "--data", str(d),
                     "--out-report", str(d / "out" / "report.csv")] + flags,
        "train": ["train", "--data", str(d), "--init-checkpoint", str(d / CKPT), "--nc", "1", "--nd", "2",
                  "--nf", "2", "--epochs", "1", "--batch-size", "1", "--out", str(d / "out" / "m.csc1")] + flags,
    }
    readers = {
        CKPT: list(every),
        IMAGE: list(every),
        MASK: ["reconstruct --mask-file"],
        MANIFEST: ["evaluate", "train"],
    }[name]
    return {c: every[c] for c in readers}


def run(argv):
    """(exit code, stderr lines) of one in-process run of the command line.

    The tests turn a numpy ``RuntimeWarning`` into an error, so a command
    that warns fails the gate: ``reconstruct`` and ``evaluate`` report
    overflow as one ``error:`` line, and ``train`` as training divergence.
    """
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # the console script would print a traceback
            pytest.fail(f"{argv[0]} raised {type(exc).__name__}: {exc}")
    return code, err.getvalue().splitlines()


def check_gate(d, pristine, name, blob):
    """Write the valid files with ``name`` replaced by ``blob`` into ``d``,
    run every command that reads it, and check each exit."""
    for other, raw in pristine.items():
        (d / other).write_bytes(blob if other == name else raw)
    if name in (CKPT, IMAGE):
        check_load(d / name)
    codes = {}
    for command, argv in commands(d, name).items():
        shutil.rmtree(d / "out", ignore_errors=True)
        code, err = run(argv)
        assert code in ((0, 2, 3) if command == "train" else (0, 2)), (command, code, err)
        if code == 2:
            assert len(err) == 1 and err[0].startswith("error:"), (command, err)
            assert not [p for p in (d / "out").rglob("*") if p.is_file()], command
        if code == 0 and command.startswith("reconstruct"):
            for out in ("x_u.cxt", "x_cnn.cxt"):
                assert np.isfinite(load_tensor(d / "out" / out)).all(), (command, out)
        if code == 0 and command == "train":
            load_checkpoint(d / "out" / "m.csc1")
        codes[command] = code
    return codes


def check_load(path):
    """A checkpoint or image either raises a typed input error on load or
    loads to finite arrays."""
    try:
        arrays = load_checkpoint(path).parameters() if path.name == CKPT else [load_image(path).channels]
    except (CheckpointFormatError, InvalidParameterError, InvalidShapeError):
        return
    except Exception as exc:
        pytest.fail(f"loading {path.name} raised {type(exc).__name__}: {exc}")
    assert all(np.isfinite(a).all() for a in arrays), path.name


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from([CKPT, IMAGE, MASK, MANIFEST]),
    kind=st.sampled_from(KINDS),
    # half the positions fall in the headers, which payload bytes outnumber
    pos=st.one_of(st.integers(0, 40), st.integers(0, 2**16)),
    payload=st.binary(min_size=1, max_size=8),
)
@example(name=CKPT, kind="append", pos=0, payload=b"\x00")
@example(name=IMAGE, kind="append", pos=0, payload=b"\x00" * 8)
@example(name=MASK, kind="append", pos=0, payload=b"\x00")
@example(name=MANIFEST, kind="append", pos=0, payload=b"\x00")
@example(name=MANIFEST, kind="byte", pos=1, payload=b"\x00")  # img.cxt -> i\0g.cxt
def test_mutated_inputs_exit_0_or_2_with_one_error_line(work, pristine, name, kind, pos, payload):
    codes = check_gate(work, pristine, name, mutate(pristine[name], kind, pos, payload))
    # a manifest is text, so appended blank or comment lines are valid; a
    # CSC1 or CXT1 file holds nothing after its last tensor
    if kind == "append" and name != MANIFEST:
        assert set(codes.values()) == {2}, codes


def test_valid_inputs_exit_0(work, pristine):
    for name in pristine:
        assert set(check_gate(work, pristine, name, pristine[name]).values()) == {0}


@pytest.mark.parametrize("name, where", [(IMAGE, "loading img.cxt"), (MANIFEST, "evaluate")], ids=["load", "command"])
def test_gate_fails_on_an_unmapped_loader_error(work, pristine, monkeypatch, name, where):
    # negative control: a loader that raises a bare ValueError fails the load
    # check of a mutated image, and escapes main for a manifest's images
    def broken(path):
        raise ValueError("unmapped loader error")

    monkeypatch.setattr(tensorcore, "load_tensor", broken)
    with pytest.raises(pytest.fail.Exception, match=f"^{where} raised ValueError: unmapped loader error"):
        check_gate(work, pristine, name, pristine[name])
