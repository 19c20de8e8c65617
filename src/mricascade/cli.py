"""Command-line surface: data generation, training, reconstruction,
evaluation, and the gradient-check harness.

Exit codes: 0 success, 1 check failure, 2 usage/input error (a bad flag
value, any unreadable or malformed checkpoint, image, manifest, mask file
or ``CASCADE_RECON_THREADS``, an input too large to allocate, a
``reconstruct`` or ``evaluate`` run whose finite checkpoint and image
overflow to a non-finite zero-fill or reconstruction, a ``train --out``
that is a directory, or an ``evaluate`` output directory that cannot be
made, where the last three are found before any file is written; commands
raise, and only :func:`main` reports it as one ``error:`` line), 3 training
divergence. Every command is deterministic given its flags;
``CASCADE_RECON_THREADS`` sets the worker count of ``train`` and ``evaluate``,
which share one rule (``training.ordered_map``: the calling thread runs every
workers-th item), and does not change the results.

``evaluate`` runs each image as one task, from reading its file to its
report row, so its memory does not grow with the split size; only
``--emit-error-maps`` keeps each image's truth, zero-fill and
reconstruction, because maps are written once every image has passed. When
images fail, the first in split order is named, however it failed.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import cascade as cascade_mod
from .errors import INPUT_ERRORS, InvalidParameterError, InvalidShapeError, TrainingDivergedError, naming_file
from .gradcheck import run_gradcheck
from .phantom import make_dataset, split_indices
from .sampling import SamplingMask, apply_encoding, generate_mask
from .tensorcore import ComplexImage, Rng, complex_norm_sq, load_image, load_tensor, save_image, save_tensor
from .training import TrainConfig, init_adam_state, ordered_map, train_epoch, worker_count

MANIFEST_NAME = "manifest.txt"


# --- shared helpers ---------------------------------------------------------


def read_manifest(data_dir: Path):
    """Returns [(path, split), ...] from a dataset directory."""
    manifest = data_dir / MANIFEST_NAME
    try:
        text = manifest.read_text()
    except UnicodeDecodeError as exc:
        raise InvalidParameterError(f"{manifest}: {exc}") from exc
    entries = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "," not in line:
            raise InvalidParameterError(f"{manifest}:{lineno}: expected 'name,split', got {line!r}")
        name, split = line.rsplit(",", 1)
        if "\0" in name:
            raise InvalidParameterError(f"{manifest}:{lineno}: file name holds a NUL byte, got {name!r}")
        entries.append((data_dir / name, split))
    return entries


def _split_paths(data_dir: Path, split: str):
    """The image paths of one split of a dataset directory; no manifest or
    an empty split raises InvalidParameterError."""
    if not (data_dir / MANIFEST_NAME).is_file():
        raise InvalidParameterError(f"no dataset manifest in {data_dir}")
    paths = [p for p, s in read_manifest(data_dir) if s == split]
    if not paths:
        raise InvalidParameterError(f"split {split!r} is empty")
    return paths


def _quantize_unit(values: np.ndarray) -> np.ndarray:
    """Map [0, 1] floats to u8 via floor(v * 255 + 0.5)."""
    v = np.clip(values, 0.0, 1.0)
    return np.minimum(np.floor(v * 255.0 + 0.5), 255).astype(np.uint8)


def write_pgm(path, gray_u8: np.ndarray) -> None:
    h, w = gray_u8.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(gray_u8.tobytes())


# --- evaluation report ------------------------------------------------------


@dataclass
class EvalReport:
    """An evaluation's per-image table: one ``(image_id, mse, zero_filled_mse,
    recon_ms)`` row per image, in dataset order."""

    model_id: str
    acceleration: float
    rows: list

    def csv_text(self) -> str:
        lines = ["image_id,mse,zero_filled_mse"]
        lines += [f"{iid},{m:.10e},{z:.10e}" for iid, m, z, _ in self.rows]
        return "\n".join(lines) + "\n"

    def table_text(self) -> str:
        _, mse, zero_filled_mse, recon_ms = zip(*self.rows)
        lines = [
            f"model: {self.model_id}",
            f"acceleration: {self.acceleration:g}",
            f"{'image_id':<24} {'mse':>14} {'zero_filled_mse':>16}",
        ]
        lines += [f"{iid:<24} {m:>14.6e} {z:>16.6e}" for iid, m, z, _ in self.rows]
        lines.append(f"mean (SD): {np.mean(mse):.6e} ({np.std(mse):.6e})")
        lines.append(f"zero-filled mean: {np.mean(zero_filled_mse):.6e}")
        lines.append(f"mean reconstruction time: {np.mean(recon_ms):.2f} ms")
        return "\n".join(lines) + "\n"


# --- commands ---------------------------------------------------------------


def cmd_generate(args) -> int:
    if args.n < 1:
        raise InvalidParameterError("--n must be >= 1")
    if args.size < 4 or args.size % 2:
        raise InvalidParameterError("--size must be even and >= 4")
    train_idx, test_idx = split_indices(args.n, args.train_fraction)
    # phantoms first: a seed make_dataset rejects leaves no output directory
    images = make_dataset(args.n, args.size, args.size, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    split_of = {i: "train" for i in train_idx}
    split_of.update({i: "test" for i in test_idx})
    lines = []
    for i, img in enumerate(images):
        name = f"phantom_{i:03d}.cxt"
        save_image(out / name, img)
        lines.append(f"{name},{split_of[i]}")
    (out / MANIFEST_NAME).write_text("\n".join(lines) + "\n")
    print(f"wrote {args.n} phantoms ({len(train_idx)} train / {len(test_idx)} test) to {out}")
    return 0


def cmd_train(args) -> int:
    if args.epochs < 0:
        raise InvalidParameterError(f"epochs must be >= 0, got {args.epochs}")
    if args.checkpoint_every < 0:
        raise InvalidParameterError(f"--checkpoint-every must be >= 0, got {args.checkpoint_every}")
    if Path(args.out).is_dir():
        raise InvalidParameterError(f"--out is a directory: {args.out}")
    # training visits every image every epoch, so it holds them all
    images = [load_image(p) for p in _split_paths(Path(args.data), "train")]

    # the line budget and the kernel's fit depend on the image size: check
    # them before a model is built or anything is written, the masks on a
    # throwaway stream so training draws stay as they are; the worker count
    # train_epoch reads is checked here for the same reason
    for height, width in {(img.height, img.width) for img in images}:
        generate_mask(Rng(0), height, width, args.acceleration, args.n_low)
        cascade_mod.check_kernel_fits(args.k, height, width)
    worker_count()
    rng = Rng(args.seed)
    if args.init_checkpoint:
        model = cascade_mod.load_checkpoint(args.init_checkpoint)
        if (model.n_c, model.n_d, model.n_f, model.k) != (args.nc, args.nd, args.nf, args.k):
            raise InvalidParameterError(
                "--init-checkpoint hyperparameters "
                f"(n_c={model.n_c}, n_d={model.n_d}, n_f={model.n_f}, k={model.k}) "
                f"do not match requested (n_c={args.nc}, n_d={args.nd}, n_f={args.nf}, k={args.k})"
            )
    else:
        model = cascade_mod.build_model(rng.child(0), args.nc, args.nd, args.nf, k=args.k)

    cfg = TrainConfig(
        batch_size=args.batch_size,
        acceleration=args.acceleration,
        n_low=args.n_low,
        augment=not args.no_augment,
    )
    train_rng = rng.child(1)
    state = init_adam_state(model.parameters())
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    log_path = out.with_suffix(out.suffix + ".log")
    final_loss = math.nan
    with open(log_path, "w") as log:

        def log_fn(epoch, step, loss, ms):
            log.write(f"{epoch},{step},{loss:.10e},{ms:.3f}\n")

        try:
            for epoch in range(args.epochs):
                model, final_loss = train_epoch(
                    model, images, cfg, train_rng, state, log_fn=log_fn, epoch=epoch
                )
                if args.checkpoint_every and (epoch + 1) % args.checkpoint_every == 0:
                    cascade_mod.save_checkpoint(model, f"{out}.epoch{epoch + 1}")
        except TrainingDivergedError as exc:
            print(f"training diverged: {exc} {exc.diagnostics}", file=sys.stderr)
            return 3
    cascade_mod.save_checkpoint(model, out)
    if args.epochs:
        print(f"trained {args.epochs} epochs, final mean loss {final_loss:.6e}")
    print(f"checkpoint written to {out}")
    return 0


def _mask_for_args(args, img: ComplexImage) -> SamplingMask:
    if args.mask_file:
        values = load_tensor(args.mask_file)
        with naming_file(args.mask_file):
            if values.shape != (img.height,):
                raise InvalidShapeError(f"mask file has shape {values.shape}, image needs ({img.height},)")
            return SamplingMask.from_tensor(values, width=img.width)
    return generate_mask(Rng(args.mask_seed), img.height, img.width, args.acceleration, args.n_low)


def _reconstruct_checked(model, img: ComplexImage, mask: SamplingMask, checkpoint, image):
    """Encode ``img``, already in the model's precision, and time the cascade
    alone: ``(zero-filled, reconstruction, ms)``.

    A run that overflowed raises InvalidParameterError naming ``checkpoint``
    and ``image``: finite weights and pixels can still take the encoding or
    the cascade past the precision's range, which leaves inf or NaN. That is
    reported once, by this check, so numpy's overflow and invalid-value
    warnings are silenced; numpy's error state is local to a thread, so it is
    set inside the task each worker runs.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        meas = apply_encoding(img, mask)
        t0 = time.perf_counter()
        x_cnn, cache = cascade_mod.cascade_forward(model, meas, _keep_caches=False)
        ms = (time.perf_counter() - t0) * 1e3
    for name, im in (("zero-filled image", cache.cfg.zero_fill), ("reconstruction", x_cnn)):
        if not np.isfinite(im.channels).all():
            raise InvalidParameterError(f"{checkpoint} on {image}: the {name} overflowed to non-finite values")
    return cache.cfg.zero_fill, x_cnn, ms


def cmd_reconstruct(args) -> int:
    model = cascade_mod.load_checkpoint(args.checkpoint)
    img = load_image(args.image)
    mask = _mask_for_args(args, img)
    x_u, x_cnn, elapsed_ms = _reconstruct_checked(model, img.astype(model.dtype), mask, args.checkpoint, args.image)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_image(out / "x_u.cxt", x_u)
    save_image(out / "x_cnn.cxt", x_cnn)
    save_tensor(out / "mask.cxt", mask.to_tensor())
    print(f"reconstruction took {elapsed_ms:.2f} ms")
    return 0


def cmd_evaluate(args) -> int:
    model = cascade_mod.load_checkpoint(args.checkpoint)

    def score(i, path):
        # one task per image, from its file to its report row; the truth is
        # the very array encoded, scored outside the timed region
        truth = load_image(path).astype(model.dtype)
        # image i's mask is drawn from Rng(mask_seed).child(i); perfbench's
        # eval-full80 check redraws each mask by this rule
        mask = generate_mask(Rng(args.mask_seed).child(i), truth.height, truth.width, args.acceleration, args.n_low)
        x_u, x_cnn, ms = _reconstruct_checked(model, truth, mask, args.checkpoint, path)
        mse = [complex_norm_sq(ComplexImage(im.channels - truth.channels)) / (truth.height * truth.width)
               for im in (x_cnn, x_u)]
        # the arrays outlive the task only for the error maps
        return (path.stem, *mse, ms), (truth, x_u, x_cnn) if args.emit_error_maps else None

    # spread over CASCADE_RECON_THREADS, caller included; results keep input
    # order, so the report does not depend on the worker count, and the first
    # image in that order that failed is the one named
    results = ordered_map(lambda item: score(*item), list(enumerate(_split_paths(Path(args.data), args.split))))
    report = EvalReport(Path(args.checkpoint).name, args.acceleration, [row for row, _ in results])
    # every image has passed its check: make every output directory before
    # writing any file, so one that cannot be made leaves no file behind
    out = Path(args.out_report) if args.out_report else None
    maps_dir = Path(args.emit_error_maps) if args.emit_error_maps else None
    for directory in filter(None, (out and out.parent, maps_dir)):
        directory.mkdir(parents=True, exist_ok=True)
    if out:
        out.write_text(report.csv_text())
        out.with_suffix(out.suffix + ".txt").write_text(report.table_text())
    if maps_dir:
        for (iid, *_), (truth, x_u, x_cnn) in results:
            # every map is scaled by the truth's peak magnitude, or by 1 if that is 0
            scale = float(np.max(truth.magnitude())) or 1.0
            err = ComplexImage(x_cnn.channels - truth.channels).magnitude()
            write_pgm(maps_dir / f"{iid}_error_x5.pgm", _quantize_unit(5.0 * err / scale))
            for tag, im in (("original", truth), ("zero_filled", x_u), ("recon", x_cnn)):
                write_pgm(maps_dir / f"{iid}_{tag}.pgm", _quantize_unit(im.magnitude() / scale))
    print(report.table_text(), end="")
    return 0


def cmd_gradcheck(args) -> int:
    results = run_gradcheck(
        seed=args.seed, size=args.size, n_c=args.nc, n_d=args.nd, n_f=args.nf, corrupt=args.corrupt
    )
    width = max(len(r.component) for r in results)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.component:<{width}}  max rel err {r.max_error:.3e}  (< {r.threshold:.0e})  {status}")
    if failed:
        print(f"gradient check FAILED: {', '.join(r.component for r in failed)}", file=sys.stderr)
        return 1
    return 0


# --- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mricascade",
        description="Cascaded CNN + data-consistency reconstruction of undersampled MR images.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic phantom dataset")
    p.add_argument("--n", type=int, required=True, help="number of phantoms")
    p.add_argument("--size", type=int, default=64, help="image height and width")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("train", help="train a cascade on a generated dataset")
    p.add_argument("--data", required=True, help="dataset directory (with manifest)")
    p.add_argument("--acceleration", type=float, default=3.0)
    p.add_argument("--n-low", type=int, default=8)
    p.add_argument("--nc", type=int, default=cascade_mod.DEFAULT_PROFILE["n_c"],
                   help="number of cascaded stages")
    p.add_argument("--nd", type=int, default=cascade_mod.DEFAULT_PROFILE["n_d"],
                   help="conv layers per stage")
    p.add_argument("--nf", type=int, default=cascade_mod.DEFAULT_PROFILE["n_f"],
                   help="filters per conv layer")
    p.add_argument("--k", type=int, default=cascade_mod.DEFAULT_PROFILE["k"],
                   help="kernel size")
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--batch-size", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-augment", action="store_true")
    p.add_argument("--checkpoint-every", type=int, default=0)
    p.add_argument("--init-checkpoint", default=None, help="warm-start weights")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("reconstruct", help="reconstruct one image with a trained model")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True, help="CXT1 complex image")
    p.add_argument("--mask-seed", type=int, default=0)
    p.add_argument("--mask-file", default=None, help="CXT1 0/1 line mask (overrides --mask-seed)")
    p.add_argument("--acceleration", type=float, default=3.0)
    p.add_argument("--n-low", type=int, default=8)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("evaluate", help="evaluate a model over a dataset split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=["train", "test"])
    p.add_argument("--acceleration", type=float, default=3.0)
    p.add_argument("--n-low", type=int, default=8)
    p.add_argument("--mask-seed", type=int, default=0)
    p.add_argument("--out-report", default=None, help="CSV report path")
    p.add_argument("--emit-error-maps", default=None, help="directory for PGM images")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("gradcheck", help="finite-difference check of all backward passes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=16)
    p.add_argument("--nc", type=int, default=2)
    p.add_argument("--nd", type=int, default=3)
    p.add_argument("--nf", type=int, default=4)
    p.add_argument("--corrupt", default=None, help=argparse.SUPPRESS)  # negative-control hook
    p.set_defaults(fn=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (OSError, *INPUT_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # an input too large to hold, such as --size 100000
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())
