"""Check that two trees of the package give byte-identical command outputs.

    python tools/same_outputs.py BASE CHANGE

BASE and CHANGE are each a directory holding ``src/mricascade`` or a git
revision of the repository in the current directory; a revision is checked
out with ``git worktree add`` into a temporary directory and removed again
afterwards. Both trees run the same command list, each in its own empty
working directory with relative paths and ``CASCADE_RECON_THREADS=2``, or 3
where marked:

- ``generate --n 6 --size 32 --seed 5``;
- ``train --nc 2 --nd 3 --nf 8 --epochs 3 --batch-size 2 --seed 1``;
- the same ``train`` with ``--batch-size 3``, on 3 workers, so that a batch
  runs on two worker processes beside the caller;
- a warm start from that checkpoint, ``train --init-checkpoint m.csc1
  --checkpoint-every 1 --epochs 2``, with its per-epoch snapshots;
- ``evaluate --mask-seed 3 --out-report --emit-error-maps`` on each split,
  and ``evaluate --mask-seed 4 --out-report`` on the train split, which
  writes no error maps;
- the same ``evaluate`` of the train split's 5 images with error maps, on 3
  workers, so that two pool threads run beside the caller;
- ``reconstruct --mask-seed 2`` of the first image, then ``reconstruct
  --mask-file`` with the mask file that run wrote;
- the benchmark's desk profile: ``generate --n 4 --size 64 --seed 6``, a
  ``train --nc 3 --nd 3 --nf 16 --epochs 2 --batch-size 2`` on those 64x64
  images and a ``reconstruct --mask-seed 2`` with its checkpoint, so that the
  conv products of a 16-channel model at 64x64 are compared too;
- ``gradcheck`` with its default seed and with ``--seed`` 1, 2 and 3;
- ``--help`` of the top level and of every command.

Every file the commands write and every command's stdout, stderr and exit
code are compared byte for byte, except wall-time text: the time column of
the training log and the ``reconstruction took`` and ``mean reconstruction
time`` lines. Prints ``same`` or ``DIFF`` per file and exits 1 on any
difference, 0 otherwise. Uses only the standard library.
"""

from __future__ import annotations

import contextlib
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

COMMANDS = {
    "generate": ["generate", "--n", "6", "--size", "32", "--seed", "5", "--out", "data"],
    "train": ["train", "--data", "data", "--nc", "2", "--nd", "3", "--nf", "8", "--epochs", "3",
              "--batch-size", "2", "--seed", "1", "--out", "m.csc1"],
    "train-3-workers": ["train", "--data", "data", "--nc", "2", "--nd", "3", "--nf", "8", "--epochs", "3",
                        "--batch-size", "3", "--seed", "1", "--out", "m3.csc1"],
    "train-warm": ["train", "--data", "data", "--nc", "2", "--nd", "3", "--nf", "8", "--epochs", "2",
                   "--batch-size", "2", "--seed", "2", "--init-checkpoint", "m.csc1", "--checkpoint-every", "1",
                   "--out", "warm.csc1"],
    **{
        f"evaluate-{split}": ["evaluate", "--checkpoint", "m.csc1", "--data", "data", "--split", split,
                              "--mask-seed", "3", "--out-report", f"{split}/report.csv",
                              "--emit-error-maps", f"{split}/maps"]
        for split in ("test", "train")
    },
    "evaluate-3-workers": ["evaluate", "--checkpoint", "m.csc1", "--data", "data", "--split", "train",
                           "--mask-seed", "3", "--out-report", "three-workers/report.csv",
                           "--emit-error-maps", "three-workers/maps"],
    "evaluate-report-only": ["evaluate", "--checkpoint", "m.csc1", "--data", "data", "--split", "train",
                             "--mask-seed", "4", "--out-report", "report-only/report.csv"],
    "reconstruct": ["reconstruct", "--checkpoint", "m.csc1", "--image", "data/phantom_000.cxt",
                    "--mask-seed", "2", "--out", "recon"],
    "reconstruct-mask-file": ["reconstruct", "--checkpoint", "m.csc1", "--image", "data/phantom_001.cxt",
                              "--mask-file", "recon/mask.cxt", "--out", "recon-mask-file"],
    "generate-desk": ["generate", "--n", "4", "--size", "64", "--seed", "6", "--out", "data64"],
    "train-desk": ["train", "--data", "data64", "--nc", "3", "--nd", "3", "--nf", "16", "--epochs", "2",
                   "--batch-size", "2", "--seed", "1", "--out", "desk.csc1"],
    "reconstruct-desk": ["reconstruct", "--checkpoint", "desk.csc1", "--image", "data64/phantom_000.cxt",
                         "--mask-seed", "2", "--out", "recon-desk"],
    "gradcheck": ["gradcheck"],
    **{f"gradcheck-seed{seed}": ["gradcheck", "--seed", str(seed)] for seed in (1, 2, 3)},
    **{
        f"help-{cmd or 'top'}": [cmd, "--help"] if cmd else ["--help"]
        for cmd in ("", "generate", "train", "reconstruct", "evaluate", "gradcheck")
    },
}
# the worker count of each command run with other than the default of 2
WORKERS = {"train-3-workers": "3", "evaluate-3-workers": "3"}
CAPTURES = "commands"
WALL_TIME_LINE = re.compile(rb"^(reconstruction took|mean reconstruction time:) .* ms$", re.MULTILINE)


def run_commands(tree: Path, out: Path) -> None:
    """Run every command of :data:`COMMANDS` on ``tree``'s package in ``out``
    and write each one's stdout, stderr and exit code to ``out/commands``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    (out / CAPTURES).mkdir(parents=True)
    for name, argv in COMMANDS.items():
        env["CASCADE_RECON_THREADS"] = WORKERS.get(name, "2")
        proc = subprocess.run([sys.executable, "-m", "mricascade", *argv], cwd=out, env=env, capture_output=True)
        (out / CAPTURES / f"{name}.txt").write_bytes(
            proc.stdout + b"--- stderr\n" + proc.stderr + f"--- exit {proc.returncode}\n".encode()
        )


def without_wall_time(rel: str, data: bytes) -> bytes:
    if rel.endswith(".log"):
        # epoch,step,loss,ms: keep all but the time column
        return b"".join(line.rsplit(b",", 1)[0] + b"\n" for line in data.splitlines())
    return WALL_TIME_LINE.sub(b"", data) if rel.endswith(".txt") else data


def compare(base: Path, change: Path) -> list:
    """``(relative path, same)`` for every file under either directory."""
    rels = sorted({p.relative_to(root).as_posix() for root in (base, change) for p in root.rglob("*") if p.is_file()})
    result = []
    for rel in rels:
        a, b = base / rel, change / rel
        both = a.is_file() and b.is_file()
        result.append((rel, both and without_wall_time(rel, a.read_bytes()) == without_wall_time(rel, b.read_bytes())))
    return result


@contextlib.contextmanager
def checked_out(spec: str, where: Path):
    """The tree ``spec`` names: a directory as it is, or a git revision
    checked out at ``where`` as a detached worktree that is removed on exit."""
    if Path(spec).is_dir():
        yield Path(spec).resolve()
        return
    if subprocess.run(["git", "worktree", "add", "--quiet", "--detach", str(where), spec]).returncode:
        raise SystemExit(2)  # git has printed why
    try:
        yield where
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(where)], check=True)


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage: python tools/same_outputs.py BASE CHANGE", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        with checked_out(argv[0], tmp / "base-tree") as base, checked_out(argv[1], tmp / "change-tree") as change:
            # the two trees run side by side; each writes only its own directory
            with ThreadPoolExecutor(2) as pool:
                runs = [pool.submit(run_commands, tree, tmp / out)
                        for tree, out in ((base, "base-out"), (change, "change-out"))]
                for run in runs:
                    run.result()
        result = compare(tmp / "base-out", tmp / "change-out")
    for rel, same in result:
        print(f"{'same' if same else 'DIFF'}  {rel}")
    return 0 if all(same for _, same in result) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
