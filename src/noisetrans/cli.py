"""Command-line entry points: make-dataset | train | denoise | eval.

Flag resolution order is CLI flag > config file ("key = value" lines) >
built-in default; every run writes a resolved-config dump next to its
outputs. A run that fails prints "error: ..." and exits with the code of
its error class; errors.py holds the table.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import autodiff as ad
from .corruption import NoiseSpec
from .errors import ArgumentError, ContractError, NoiseTransError, ParseError
from .geometry import (
    PointCloud,
    load_mesh,
    make_shape,
    read_pointcloud,
    read_text,
    write_pointcloud,
)
from .model import ModelConfig, desk_config, full_config, load_weights
from .pipeline import (
    auto_iterations,
    denoise,
    evaluate_pairs,
    make_dataset,
    run_sweep,
    sweep_variants,
    train,
    write_report,
)


def read_config_file(path) -> dict:
    """Parse UTF-8 'key = value' lines; '#' starts a comment."""
    values = {}
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key = value'")
        key, val = line.split("=", 1)
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def _resolve(args, defaults: dict) -> dict:
    """CLI flag > config file > default, coerced to the default's type;
    the shared flags the subcommand's parser added join `defaults`. A
    config-file key outside `defaults` is one the subcommand never reads,
    a typo or another subcommand's setting, and raises ParseError."""
    defaults = {**{name: default for name, (default, _) in _SHARED_FLAGS.items()
                   if hasattr(args, name)}, **defaults}
    file_vals = read_config_file(args.config) if args.config else {}
    unread = sorted(set(file_vals) - set(defaults))
    if unread:
        raise ParseError(
            f"{args.config}: '{unread[0]}' is not a setting of {args.command} "
            f"(it reads {', '.join(sorted(defaults))})"
        )
    resolved = {}
    for key, default in defaults.items():
        cli_val = getattr(args, key)
        if cli_val is not None:
            resolved[key] = cli_val
        elif key in file_vals:
            raw = file_vals[key]
            try:
                resolved[key] = (raw.lower() in ("1", "true", "yes", "on")
                                 if isinstance(default, bool) else type(default)(raw))
            except ValueError:
                raise ParseError(
                    f"{args.config}: '{key}' needs a {type(default).__name__}, got '{raw}'"
                ) from None
        else:
            resolved[key] = default
    return resolved


def _dump_resolved(resolved: dict, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "resolved_config.json"), "w", encoding="utf-8") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _model_config(resolved: dict) -> ModelConfig:
    maker = desk_config if resolved["profile"] == "desk" else full_config
    return maker(
        encoding_mode=resolved["encoding"],
        lpa_enabled=resolved["lpa"] != "off",
        attention_enabled=resolved["attention"] != "off",
    )


def _number(kind, key: str, raw):
    """`raw` converted by `kind` (int or float); ArgumentError names the
    option and the value when it does not convert."""
    try:
        return kind(raw)
    except ValueError:
        flag = "--" + key.replace("_", "-")
        need = "an integer" if kind is int else "a number"
        raise ArgumentError(f"{flag} needs {need}, got '{raw}'") from None


def _set_precision(resolved: dict) -> None:
    ad.set_default_dtype(np.float32 if resolved["precision"] == "f32" else np.float64)


# Flags that more than one subcommand reads: name -> (built-in default,
# argparse keywords). Each subcommand's parser adds only the ones it reads,
# and _resolve supplies their defaults.
_SHARED_FLAGS = {
    "seed": (0, {"type": int}),
    "profile": ("desk", {"choices": ("desk", "full")}),
    "precision": ("f64", {"choices": ("f32", "f64")}),
}


def _add_shared(p: argparse.ArgumentParser, *names: str) -> None:
    p.add_argument("--config", default=None, help="key = value config file")
    for name in names:
        p.add_argument(f"--{name}", default=None, **_SHARED_FLAGS[name][1])


def cmd_make_dataset(args) -> int:
    defaults = {
        "shapes": "sphere,torus", "points": 1024, "noise": "gaussian",
        "noise_level": "0.02", "noise_ref": "bounding_sphere_radius",
        "count": 0, "out": "dataset",
    }
    r = _resolve(args, defaults)
    level = str(r["noise_level"])
    level_range = None
    if ":" in level:
        lo, hi = level.split(":", 1)
        level_range = (_number(float, "noise_level", lo), _number(float, "noise_level", hi))
        base_level = level_range[0]
    else:
        base_level = _number(float, "noise_level", level)
    spec = NoiseSpec(distribution=r["noise"], level=base_level,
                     scale_reference=r["noise_ref"], seed=r["seed"])
    shapes = [s for s in str(r["shapes"]).split(",") if s]
    count = int(r["count"]) or None
    path = make_dataset(r["out"], shapes, int(r["points"]), spec, seed=r["seed"],
                        count=count, level_range=level_range)
    _dump_resolved(r, r["out"])
    print(path)
    return 0


def cmd_train(args) -> int:
    defaults = {
        "encoding": "sparse", "lpa": "on", "attention": "on",
        "data": "", "out": "run", "epochs": 30, "lr": 5e-4, "halve_every": 50,
        "patch_size": 256, "alpha": 0.9, "beta": 0.1, "anchor": "input",
        "average_tail": 1, "resume": "",
    }
    r = _resolve(args, defaults)
    if not r["data"]:
        raise ArgumentError("--data manifest is required")
    _set_precision(r)
    cfg = _model_config(r)
    _dump_resolved(r, r["out"])
    result = train(
        r["data"], cfg, int(r["epochs"]), r["out"], base_lr=float(r["lr"]),
        halve_every=int(r["halve_every"]), seed=r["seed"],
        patch_size=int(r["patch_size"]), alpha=float(r["alpha"]),
        beta=float(r["beta"]), anchor=r["anchor"],
        average_tail=int(r["average_tail"]),
        resume=r["resume"] or None, progress=print,
    )
    print(result.weights_path)
    return 0


def cmd_denoise(args) -> int:
    defaults = {
        "infile": "", "weights": "", "out": "denoised.xyz",
        "iterations": "auto", "noise_level": "", "patch_size": 256,
        "rotations": 1,
    }
    r = _resolve(args, defaults)
    if not r["infile"] or not r["weights"]:
        raise ArgumentError("--in and --weights are required")
    if str(r["iterations"]) == "auto":
        level = _number(float, "noise_level", r["noise_level"]) if r["noise_level"] else None
        iterations = auto_iterations(level)
    else:
        iterations = _number(int, "iterations", r["iterations"])
    _set_precision(r)
    weights = load_weights(r["weights"])
    cloud = read_pointcloud(r["infile"])
    out = denoise(cloud.coords, weights, iterations=iterations,
                  patch_size=int(r["patch_size"]), rotations=int(r["rotations"]))
    write_pointcloud(PointCloud(out), r["out"])
    out_dir = os.path.dirname(os.path.abspath(r["out"]))
    _dump_resolved(r, out_dir)
    print(r["out"])
    return 0


def _parse_sweep(spec: str):
    dims = {"encoding": ["sparse"], "lpa": [True], "attention": [True]}
    for part in spec.replace(";", " ").split():
        if "=" not in part:
            raise ArgumentError(f"bad sweep term '{part}' (use dim=v1,v2)")
        dim, vals = part.split("=", 1)
        if dim == "encoding":
            dims["encoding"] = vals.split(",")
        elif dim in ("lpa", "attention"):
            dims[dim] = [v == "on" for v in vals.split(",")]
        else:
            raise ArgumentError(f"unknown sweep dimension '{dim}'")
    return sweep_variants(dims["encoding"], dims["lpa"], dims["attention"])


def cmd_eval(args) -> int:
    defaults = {
        "denoised": "", "clean": "", "mesh": "", "surface": "",
        "noise": "", "iterations_used": 0, "out_report": "report",
        "export_colored": False, "sweep": "", "data": "", "test_data": "",
        "epochs": 2, "lr": 5e-4, "patch_size": 256,
    }
    r = _resolve(args, defaults)
    _set_precision(r)
    if r["sweep"]:
        if not r["data"] or not r["test_data"]:
            raise ArgumentError("--sweep needs --data and --test-data manifests")
        variants = _parse_sweep(r["sweep"])
        cfg = desk_config() if r["profile"] == "desk" else full_config()
        grid = run_sweep(r["data"], r["test_data"], cfg, variants,
                         epochs=int(r["epochs"]), out_dir=r["out_report"],
                         seed=r["seed"], base_lr=float(r["lr"]),
                         patch_size=int(r["patch_size"]), progress=print)
        _dump_resolved(r, r["out_report"])
        print(grid)
        return 0
    if not r["denoised"] or not r["clean"]:
        raise ArgumentError("--denoised and --clean are required (or use --sweep)")
    denoised_paths = r["denoised"].split(",")
    clean_paths = r["clean"].split(",")
    if len(denoised_paths) != len(clean_paths):
        raise ContractError(
            f"{len(denoised_paths)} denoised files vs {len(clean_paths)} clean files"
        )
    if r["mesh"]:
        surface = load_mesh(r["mesh"])
    elif r["surface"]:
        surface = make_shape(r["surface"])
    else:
        raise ArgumentError("give --mesh FILE or --surface NAME for the P2M metric")
    items = []
    for dpath, cpath in zip(denoised_paths, clean_paths):
        items.append({
            "name": os.path.basename(dpath).rsplit(".", 1)[0],
            "denoised": read_pointcloud(dpath).coords,
            "clean": read_pointcloud(cpath).coords,
            "surface": surface,
            "noise": r["noise"],
            "iterations": int(r["iterations_used"]),
        })
    report = evaluate_pairs(items, out_dir=r["out_report"],
                            export_colored=bool(r["export_colored"]),
                            config_hash=_hash_config(r))
    txt, _ = write_report(report, r["out_report"])
    _dump_resolved(r, r["out_report"])
    print(report.to_text(), end="")
    print(txt)
    return 0


def _hash_config(resolved: dict) -> str:
    blob = json.dumps(resolved, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="noisetrans",
                                     description="Point cloud denoising pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-dataset", help="synthesize paired clean/noisy clouds")
    _add_shared(p, "seed")
    p.add_argument("--shapes", default=None, help="comma list: sphere,torus[:R:r],cube, or mesh paths")
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--noise", choices=("gaussian", "laplace", "uniform"), default=None)
    p.add_argument("--noise-level", dest="noise_level", default=None,
                   help="fixed level (0.02) or range (0.01:0.04)")
    p.add_argument("--noise-ref", dest="noise_ref",
                   choices=("bounding_sphere_radius", "bounding_box_diagonal"), default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_make_dataset)

    p = sub.add_parser("train", help="train a model on a dataset manifest")
    _add_shared(p, "seed", "profile", "precision")
    p.add_argument("--encoding", choices=("sparse", "coordinate", "none"), default=None)
    p.add_argument("--lpa", choices=("on", "off"), default=None)
    p.add_argument("--attention", choices=("on", "off"), default=None)
    p.add_argument("--data", default=None, help="manifest.json from make-dataset")
    p.add_argument("--out", dest="out", default=None, help="output run directory")
    p.add_argument("--out-weights", dest="out", default=None, help="alias for --out")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--halve-every", dest="halve_every", type=int, default=None)
    p.add_argument("--patch-size", dest="patch_size", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--anchor", choices=("input", "matched_gt"), default=None)
    p.add_argument("--average-tail", dest="average_tail", type=int, default=None,
                   help="average the last N end-of-epoch weight snapshots")
    p.add_argument("--resume", default=None, help="run directory with a checkpoint")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("denoise", help="denoise a point cloud file")
    _add_shared(p, "precision")
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--weights", default=None)
    p.add_argument("--iterations", default=None, help="an integer or 'auto'")
    p.add_argument("--noise-level", dest="noise_level", default=None,
                   help="known noise level, drives 'auto' iterations")
    p.add_argument("--patch-size", dest="patch_size", type=int, default=None)
    p.add_argument("--rotations", type=int, default=None,
                   help="average predictions over N patch orientations")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("eval", help="evaluate denoised clouds or run an ablation sweep")
    _add_shared(p, "seed", "profile", "precision")
    p.add_argument("--denoised", default=None, help="comma list of denoised clouds")
    p.add_argument("--clean", default=None, help="comma list of clean clouds")
    p.add_argument("--mesh", default=None, help="ground-truth mesh (off/obj)")
    p.add_argument("--surface", default=None, help="analytic surface (sphere, torus:R:r, cube)")
    p.add_argument("--noise", default=None, help="noise label recorded in the report")
    p.add_argument("--iterations-used", dest="iterations_used", type=int, default=None)
    p.add_argument("--out-report", dest="out_report", default=None)
    p.add_argument("--export-colored", dest="export_colored", action="store_true", default=None)
    p.add_argument("--sweep", default=None,
                   help="e.g. 'encoding=sparse,coordinate,none lpa=on,off attention=on,off'")
    p.add_argument("--data", default=None, help="training manifest for --sweep")
    p.add_argument("--test-data", dest="test_data", default=None, help="test manifest for --sweep")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--patch-size", dest="patch_size", type=int, default=None)
    p.set_defaults(func=cmd_eval)

    return parser


# The builtin errors a run may end with; the package's own errors carry
# their exit code (see errors.py). Any other exception is a bug.
_BUILTIN_EXIT_CODES = {OSError: 3}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    dtype = ad.default_dtype()  # --precision switches it for this call only
    try:
        return args.func(args)
    except (NoiseTransError, *_BUILTIN_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, NoiseTransError):
            return exc.exit_code
        return next(code for cls, code in _BUILTIN_EXIT_CODES.items() if isinstance(exc, cls))
    finally:
        ad.set_default_dtype(dtype)


if __name__ == "__main__":
    sys.exit(main())
