"""The byte-comparison tool that CHANGES.md cites, with a negative control:
a tree whose only change alters one byte of what the generate command prints."""

import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "tools" / "same_outputs.py"


def git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args], cwd=repo,
                   check=True, capture_output=True)


def test_one_changed_byte_is_the_only_diff(tmp_path):
    # BASE is the committed tree, checked out by revision; CHANGE is the
    # working tree, where generate prints "Wrote" for "wrote"
    repo = tmp_path / "repo"
    shutil.copytree(REPO / "src", repo / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    git(repo, "init", "--quiet")
    git(repo, "add", "src")
    git(repo, "commit", "--quiet", "-m", "base")
    cli = repo / "src" / "mricascade" / "cli.py"
    source = cli.read_text()
    assert source.count('print(f"wrote ') == 1
    cli.write_text(source.replace('print(f"wrote ', 'print(f"Wrote '))

    proc = subprocess.run([sys.executable, str(SCRIPT), "HEAD", "."], cwd=repo, capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    # both generate runs print the changed line
    assert [line for line in lines if not line.startswith("same  ")] == [
        "DIFF  commands/generate-desk.txt", "DIFF  commands/generate.txt"]
    # every command ran, the ones that print wall times included
    for name in ("train", "train-3-workers", "train-warm", "evaluate-test", "evaluate-train", "evaluate-3-workers",
                 "evaluate-report-only", "reconstruct", "reconstruct-mask-file", "train-desk", "reconstruct-desk",
                 "gradcheck", "gradcheck-seed3", "help-top"):
        assert f"same  commands/{name}.txt" in lines
    assert "same  train/maps/phantom_004_recon.pgm" in lines and "same  m.csc1" in lines
    # the 3-worker evaluate's report and maps, of all 5 train images
    assert "same  three-workers/report.csv" in lines and "same  three-workers/maps/phantom_004_recon.pgm" in lines
    # evaluate without --emit-error-maps writes its report and nothing else
    assert [line for line in lines if "report-only/" in line] == [
        "same  report-only/report.csv", "same  report-only/report.csv.txt"]
    for rel in ("m3.csc1", "m3.csc1.log", "warm.csc1", "warm.csc1.epoch1", "warm.csc1.epoch2", "warm.csc1.log", "recon-mask-file/x_cnn.cxt",
                "data64/phantom_003.cxt", "desk.csc1", "desk.csc1.log", "recon-desk/x_cnn.cxt"):
        assert f"same  {rel}" in lines
    # the worktree of HEAD is gone
    listed = subprocess.run(["git", "worktree", "list"], cwd=repo, capture_output=True, text=True, check=True)
    assert len(listed.stdout.splitlines()) == 1
