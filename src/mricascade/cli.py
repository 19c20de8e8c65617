"""Command-line surface: data generation, training, reconstruction,
evaluation, and the gradient-check harness.

Exit codes: 0 success, 1 check failure, 2 usage/input error (a bad flag
value, or any unreadable or malformed checkpoint, image, manifest, mask file
or ``CASCADE_RECON_THREADS``; commands raise, and only :func:`main` reports it
as one ``error:`` line), 3 training divergence. Every command is deterministic
given its flags; ``CASCADE_RECON_THREADS`` sets the worker count of ``train``
and ``evaluate``, which share one rule (``training.ordered_map``: the calling
thread runs every workers-th item), and does not change the results.
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
from .errors import (
    CheckpointFormatError,
    InvalidParameterError,
    InvalidShapeError,
    TrainingDivergedError,
)
from .gradcheck import run_gradcheck
from .phantom import make_dataset, split_indices
from .sampling import SamplingMask, apply_encoding, generate_mask
from .tensorcore import ComplexImage, Rng, load_image, load_tensor, save_image, save_tensor
from .training import TrainConfig, init_adam_state, mse_loss, ordered_map, train_epoch, worker_count

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
        entries.append((data_dir / name, split))
    return entries


def _load_split(data_dir: Path, split: str):
    items = [(p, s) for p, s in read_manifest(data_dir) if s == split]
    return [p for p, _ in items], [load_image(p) for p, _ in items]


def _quantize_unit(values: np.ndarray) -> np.ndarray:
    """Map [0, 1] floats to u8 via floor(v * 255 + 0.5)."""
    v = np.clip(values, 0.0, 1.0)
    return np.minimum(np.floor(v * 255.0 + 0.5), 255).astype(np.uint8)


def write_pgm(path, gray_u8: np.ndarray) -> None:
    h, w = gray_u8.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(gray_u8.tobytes())


def _eval_mask(mask_seed: int, image_index: int, img: ComplexImage, acceleration: float, n_low: int) -> SamplingMask:
    # fixed per-image mask: derived deterministically from seed + index
    return generate_mask(
        Rng(mask_seed).child(image_index), img.height, img.width, acceleration, n_low
    )


# --- evaluation report ------------------------------------------------------


@dataclass
class EvalReport:
    model_id: str
    acceleration: float
    image_ids: list
    mse: list
    zero_filled_mse: list
    recon_ms: list

    @property
    def mean(self) -> float:
        return float(np.mean(self.mse))

    @property
    def sd(self) -> float:
        return float(np.std(self.mse))

    @property
    def zero_filled_mean(self) -> float:
        return float(np.mean(self.zero_filled_mse))

    def csv_text(self) -> str:
        lines = ["image_id,mse,zero_filled_mse"]
        for iid, m, z in zip(self.image_ids, self.mse, self.zero_filled_mse):
            lines.append(f"{iid},{m:.10e},{z:.10e}")
        return "\n".join(lines) + "\n"

    def table_text(self) -> str:
        lines = [
            f"model: {self.model_id}",
            f"acceleration: {self.acceleration:g}",
            f"{'image_id':<24} {'mse':>14} {'zero_filled_mse':>16}",
        ]
        for iid, m, z in zip(self.image_ids, self.mse, self.zero_filled_mse):
            lines.append(f"{iid:<24} {m:>14.6e} {z:>16.6e}")
        lines.append(f"mean (SD): {self.mean:.6e} ({self.sd:.6e})")
        lines.append(f"zero-filled mean: {self.zero_filled_mean:.6e}")
        lines.append(f"mean reconstruction time: {float(np.mean(self.recon_ms)):.2f} ms")
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
    data_dir = Path(args.data)
    if not (data_dir / MANIFEST_NAME).is_file():
        raise InvalidParameterError(f"no dataset manifest in {data_dir}")
    _, images = _load_split(data_dir, "train")
    if not images:
        raise InvalidParameterError("training split is empty")

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
        seed=args.seed,
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
        if values.shape != (img.height,):
            raise InvalidShapeError(f"mask file has shape {values.shape}, image needs ({img.height},)")
        return SamplingMask.from_tensor(values, width=img.width)
    return generate_mask(Rng(args.mask_seed), img.height, img.width, args.acceleration, args.n_low)


def _timed_reconstruct(model, img: ComplexImage, mask: SamplingMask):
    """Encode, then time the cascade alone: (zero-filled, recon, ms)."""
    meas = apply_encoding(img.astype(model.dtype), mask)
    t0 = time.perf_counter()
    x_cnn, cache = cascade_mod.cascade_forward(model, meas, _keep_caches=False)
    ms = (time.perf_counter() - t0) * 1e3
    return cache.cfg.zero_fill, x_cnn, ms


def cmd_reconstruct(args) -> int:
    model = cascade_mod.load_checkpoint(args.checkpoint)
    img = load_image(args.image)
    mask = _mask_for_args(args, img)
    x_u, x_cnn, elapsed_ms = _timed_reconstruct(model, img, mask)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_image(out / "x_u.cxt", x_u)
    save_image(out / "x_cnn.cxt", x_cnn)
    save_tensor(out / "mask.cxt", mask.to_tensor())
    print(f"reconstruction took {elapsed_ms:.2f} ms")
    return 0


def cmd_evaluate(args) -> int:
    model = cascade_mod.load_checkpoint(args.checkpoint)
    data_dir = Path(args.data)
    if not (data_dir / MANIFEST_NAME).is_file():
        raise InvalidParameterError(f"no dataset manifest in {data_dir}")
    paths, images = _load_split(data_dir, args.split)
    if not images:
        raise InvalidParameterError(f"split {args.split!r} is empty")

    masks = [
        _eval_mask(args.mask_seed, i, img, args.acceleration, args.n_low)
        for i, img in enumerate(images)
    ]
    # spread over CASCADE_RECON_THREADS, caller included; results keep input
    # order, so the report does not depend on the worker count
    results = ordered_map(lambda t: _timed_reconstruct(model, *t), list(zip(images, masks)))

    report = EvalReport(
        model_id=Path(args.checkpoint).name,
        acceleration=args.acceleration,
        image_ids=[p.stem for p in paths],
        mse=[],
        zero_filled_mse=[],
        recon_ms=[],
    )
    for img, (x_u, x_cnn, ms) in zip(images, results):
        truth = img.astype(model.dtype)
        report.mse.append(mse_loss(x_cnn, truth)[0])
        report.zero_filled_mse.append(mse_loss(x_u, truth)[0])
        report.recon_ms.append(ms)

    if args.out_report:
        out = Path(args.out_report)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(report.csv_text())
        out.with_suffix(out.suffix + ".txt").write_text(report.table_text())
    if args.emit_error_maps:
        maps_dir = Path(args.emit_error_maps)
        maps_dir.mkdir(parents=True, exist_ok=True)
        for p, img, (x_u, x_cnn, _) in zip(paths, images, results):
            truth = img.astype(model.dtype)
            peak = float(np.max(truth.magnitude()))
            scale = peak if peak > 0 else 1.0
            err = ComplexImage(x_cnn.channels - truth.channels).magnitude()
            write_pgm(maps_dir / f"{p.stem}_error_x5.pgm", _quantize_unit(5.0 * err / scale))
            for tag, im in (("original", truth), ("zero_filled", x_u), ("recon", x_cnn)):
                write_pgm(maps_dir / f"{p.stem}_{tag}.pgm", _quantize_unit(im.magnitude() / scale))
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
    except (OSError, CheckpointFormatError, InvalidParameterError, InvalidShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())
