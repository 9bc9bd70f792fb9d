"""Command-line interface: flag/config-file/default resolution, the four
subcommands end to end on tiny inputs, and exit-code mapping."""
import argparse
import json
import zlib

import numpy as np
import pytest

import noisetrans.autodiff as ad
import noisetrans.cli
from noisetrans.cli import build_parser, main, read_config_file, _parse_sweep
from noisetrans.errors import ArgumentError, FormatError, ParseError
from noisetrans.geometry import PointCloud, Sphere, read_pointcloud, sample_surface, write_pointcloud
from noisetrans.model import desk_config, init_weights, load_weights, save_weights
from noisetrans.objective import Adam


def run(args):
    return main([str(a) for a in args])


def test_read_config_file(tmp_path):
    p = tmp_path / "cfg"
    p.write_text("epochs = 5  # quick run\npatch-size = 32\n\n# comment\nlr=0.001\n")
    vals = read_config_file(p)
    assert vals == {"epochs": "5", "patch_size": "32", "lr": "0.001"}
    p.write_text("epochs 5\n")
    with pytest.raises(ParseError):
        read_config_file(p)


def test_resolution_order_cli_beats_file_beats_default(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("points = 40\ncount = 3\n")
    out = tmp_path / "ds"
    assert run(["make-dataset", "--config", cfg, "--shapes", "sphere",
                "--count", 2, "--out", out]) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["points"] == 40       # from file
    assert resolved["count"] == 2         # CLI wins over file
    assert resolved["noise"] == "gaussian"  # default
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["entries"]) == 2
    assert manifest["entries"][0]["points"] == 40


def test_make_dataset_level_range_flag(tmp_path):
    out = tmp_path / "ds"
    assert run(["make-dataset", "--shapes", "sphere", "--points", 32,
                "--count", 3, "--noise-level", "0.01:0.04", "--out", out]) == 0
    levels = {e["noise"]["level"]
              for e in json.loads((out / "manifest.json").read_text())["entries"]}
    assert len(levels) == 3 and all(0.01 <= lv <= 0.04 for lv in levels)


@pytest.fixture()
def tiny_dataset(tmp_path):
    out = tmp_path / "ds"
    assert run(["make-dataset", "--shapes", "sphere,torus", "--points", 64,
                "--count", 2, "--out", out]) == 0
    return out / "manifest.json"


def test_train_zero_epochs_writes_init_weights(tiny_dataset, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert run(["train", "--data", tiny_dataset, "--epochs", 0,
                "--out", run_dir]) == 0
    printed = capsys.readouterr().out.strip().splitlines()[-1]
    assert printed == str(run_dir / "weights.ntw")
    assert (run_dir / "weights.ntw").exists()
    assert (run_dir / "resolved_config.json").exists()


def test_denoise_identity_via_cli(tiny_dataset, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert run(["train", "--data", tiny_dataset, "--epochs", 0,
                "--out", run_dir]) == 0
    noisy = tiny_dataset.parent / "shape_000_sphere_noisy.xyz"
    out_file = tmp_path / "den.xyz"
    assert run(["denoise", "--in", noisy, "--weights", run_dir / "weights.ntw",
                "--iterations", 1, "--patch-size", 16, "--out", out_file]) == 0
    a = read_pointcloud(noisy).coords
    b = read_pointcloud(out_file).coords
    # fresh weights are the identity and xyz text round-trips exactly
    assert np.abs(a - b).max() <= 1e-9


def test_f32_denoise_leaves_the_default_dtype_alone(tiny_dataset, tmp_path):
    run_dir = tmp_path / "run"
    assert run(["train", "--data", tiny_dataset, "--epochs", 0, "--out", run_dir]) == 0
    noisy = tiny_dataset.parent / "shape_000_sphere_noisy.xyz"
    assert ad.default_dtype() == np.float64
    assert run(["denoise", "--in", noisy, "--weights", run_dir / "weights.ntw",
                "--iterations", 1, "--patch-size", 16, "--precision", "f32",
                "--out", tmp_path / "den.xyz"]) == 0
    assert ad.default_dtype() == np.float64
    # and on the error path
    assert run(["denoise", "--in", noisy, "--weights", tmp_path / "nope.ntw",
                "--precision", "f32"]) == 3
    assert ad.default_dtype() == np.float64


def test_denoise_auto_iterations_uses_noise_level(tiny_dataset, tmp_path):
    run_dir = tmp_path / "run"
    run(["train", "--data", tiny_dataset, "--epochs", 0, "--out", run_dir])
    noisy = tiny_dataset.parent / "shape_000_sphere_noisy.xyz"
    out_file = tmp_path / "den.xyz"
    assert run(["denoise", "--in", noisy, "--weights", run_dir / "weights.ntw",
                "--noise-level", "0.03", "--patch-size", 16,
                "--out", out_file]) == 0
    resolved = json.loads((tmp_path / "resolved_config.json").read_text())
    assert resolved["iterations"] == "auto"


def test_eval_direct_mode(tiny_dataset, tmp_path, capsys):
    base = tiny_dataset.parent
    report_dir = tmp_path / "report"
    assert run(["eval",
                "--denoised", base / "shape_000_sphere_noisy.xyz",
                "--clean", base / "shape_000_sphere_clean.xyz",
                "--surface", "sphere", "--noise", "gaussian@2%",
                "--iterations-used", 1, "--out-report", report_dir,
                "--export-colored"]) == 0
    out = capsys.readouterr().out
    assert "MEAN" in out
    assert (report_dir / "report.txt").exists()
    assert (report_dir / "report.jsonl").exists()
    assert (report_dir / "shape_000_sphere_noisy_colored.ply").exists()
    rows = [json.loads(l) for l in
            (report_dir / "report.jsonl").read_text().splitlines()]
    assert rows[-1]["name"] == "__aggregate__"
    assert rows[0]["cd"] > 0


def test_parse_sweep():
    vs = _parse_sweep("encoding=sparse,none lpa=on,off attention=on")
    assert len(vs) == 4
    with pytest.raises(ArgumentError):
        _parse_sweep("flavor=spicy")
    with pytest.raises(ArgumentError):
        _parse_sweep("encoding")


def test_exit_codes(tmp_path, capsys):
    # 2: argument error
    assert run(["train", "--epochs", 1]) == 2
    # 3: missing file
    assert run(["denoise", "--in", tmp_path / "nope.xyz",
                "--weights", tmp_path / "nope.ntw"]) == 3
    # 3: format error (not a weights file)
    bad = tmp_path / "bad.ntw"
    bad.write_bytes(b"garbage")
    pts = tmp_path / "p.xyz"
    pts.write_text("0 0 0\n1 0 0\n")
    assert run(["denoise", "--in", pts, "--weights", bad]) == 3
    # 3: parse error in a data file
    badxyz = tmp_path / "bad.xyz"
    badxyz.write_text("1 2\n")
    assert run(["eval", "--denoised", badxyz, "--clean", badxyz,
                "--surface", "sphere"]) == 3
    # 2: unknown analytic surface
    assert run(["eval", "--denoised", pts, "--clean", pts,
                "--surface", "pyramid"]) == 2
    capsys.readouterr()


def test_ascii_ply_with_bad_numbers_exits_3(tmp_path, capsys):
    head = "ply\nformat ascii 1.0\n"
    props = "property float x\nproperty float y\nproperty float z\nend_header\n"
    cases = {
        "count.ply": (head + "element vertex x\n" + props + "0 0 0\n", ":3:"),
        "value.ply": (head + "element vertex 2\n" + props + "0 0 0\n1 abc 0\n", ":9:"),
    }
    for name, (text, line) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        assert run(["eval", "--denoised", path, "--clean", path, "--surface", "sphere"]) == 3
        assert f"error: {path}{line}" in capsys.readouterr().err


def test_numeric_flags_that_do_not_convert_exit_2(tiny_dataset, tmp_path, capsys):
    noisy = tiny_dataset.parent / "shape_000_sphere_noisy.xyz"
    weights = tmp_path / "w.ntw"
    save_weights(init_weights(desk_config()), weights)
    assert run(["denoise", "--in", noisy, "--weights", weights,
                "--iterations", "abc"]) == 2
    assert "error: --iterations needs an integer, got 'abc'" in capsys.readouterr().err
    assert run(["denoise", "--in", noisy, "--weights", weights,
                "--noise-level", "abc"]) == 2
    assert "error: --noise-level needs a number, got 'abc'" in capsys.readouterr().err
    for level in ("abc", "0.01:x", "x:0.04"):
        assert run(["make-dataset", "--shapes", "sphere", "--points", 32,
                    "--noise-level", level, "--out", tmp_path / "ds"]) == 2
        assert "error: --noise-level needs a number" in capsys.readouterr().err


def test_os_decode_and_config_value_errors_exit_3(tiny_dataset, tmp_path, capsys):
    # a directory where a file belongs, for the weights and for the manifest
    assert run(["denoise", "--in", tmp_path, "--weights", tmp_path]) == 3
    assert "Is a directory" in capsys.readouterr().err
    assert run(["train", "--data", tmp_path, "--out", tmp_path / "run"]) == 3
    assert "Is a directory" in capsys.readouterr().err
    # a data file that is not UTF-8 text
    binary = tmp_path / "bin.xyz"
    binary.write_bytes(b"0 0 0\n\xff\xfe\x00\x81\n")
    assert run(["eval", "--denoised", binary, "--clean", binary,
                "--surface", "sphere"]) == 3
    assert f"{binary}: byte 6 is not UTF-8 text" in capsys.readouterr().err
    # a config value that does not convert to its key's type
    cfg = tmp_path / "cfg"
    cfg.write_text("epochs = abc\n")
    assert run(["train", "--config", cfg, "--data", tiny_dataset,
                "--out", tmp_path / "run"]) == 3
    err = capsys.readouterr().err
    assert str(cfg) in err and "'epochs'" in err and "'abc'" in err


def test_a_builtin_index_error_is_a_bug_not_an_exit_code(monkeypatch, tmp_path):
    def broken(args):
        return [][0]

    monkeypatch.setattr(noisetrans.cli, "cmd_eval", broken)
    with pytest.raises(IndexError):
        run(["eval"])
    assert ad.default_dtype() == np.float64


def test_f32_denoise_runs_in_f32_and_stays_close_to_f64(tmp_path):
    weights = init_weights(desk_config(), seed=0)
    rng = np.random.default_rng(1000)
    weights["head.final.weight"].data = 0.05 * rng.standard_normal(
        weights["head.final.weight"].shape)
    weights["head.final.bias"].data = 0.05 * rng.standard_normal(3)
    save_weights(weights, tmp_path / "w.ntw")
    noisy = sample_surface(Sphere(), 256, seed=0).coords
    noisy = noisy + 0.02 * np.random.default_rng(0).standard_normal(noisy.shape)
    write_pointcloud(PointCloud(noisy), tmp_path / "in.xyz")
    out = {}
    for precision in ("f32", "f64"):
        assert run(["denoise", "--in", tmp_path / "in.xyz", "--weights", tmp_path / "w.ntw",
                    "--iterations", 1, "--patch-size", 32, "--precision", precision,
                    "--out", tmp_path / f"{precision}.xyz"]) == 0
        out[precision] = read_pointcloud(tmp_path / f"{precision}.xyz").coords
    # the randomized head moves points, so the network is not the identity
    assert np.abs(out["f64"] - noisy).max() > 1e-2
    assert not np.array_equal(out["f32"], out["f64"])
    # measured 3.2e-6 to 8.9e-6 over weight and cloud seeds 0-5; 1e-4 leaves margin
    assert np.abs(out["f32"] - out["f64"]).max() <= 1e-4


def test_eval_sweep_smoke(tmp_path, capsys):
    ds = tmp_path / "ds"
    assert run(["make-dataset", "--shapes", "sphere", "--points", 48,
                "--count", 1, "--out", ds]) == 0
    test_ds = tmp_path / "tds"
    assert run(["make-dataset", "--shapes", "sphere", "--points", 48,
                "--count", 1, "--seed", 7, "--out", test_ds]) == 0
    report = tmp_path / "sweep"
    assert run(["eval", "--sweep", "encoding=sparse,none",
                "--data", ds / "manifest.json",
                "--test-data", test_ds / "manifest.json",
                "--epochs", 1, "--patch-size", 16,
                "--out-report", report]) == 0
    grid = (report / "ablation_grid.txt").read_text().splitlines()
    assert len(grid) == 3  # header + two variants
    assert "enc=sparse,lpa=on,att=on" in grid[1]
    assert (report / "ablation_records.jsonl").exists()
    capsys.readouterr()


def test_ply_header_line_without_fields_exits_3(tmp_path, capsys):
    cases = {
        "format.ply": ("ply\nformat\nelement vertex 1\nproperty float x\n", ":2:"),
        "property.ply": ("ply\nformat ascii 1.0\nelement vertex 1\nproperty\n", ":4:"),
    }
    for name, (head, line) in cases.items():
        path = tmp_path / name
        path.write_text(head + "end_header\n0 0 0\n")
        assert run(["eval", "--denoised", path, "--clean", path, "--surface", "sphere"]) == 3
        assert f"error: {path}{line}" in capsys.readouterr().err


def test_mesh_with_a_negative_face_index_exits_3(tmp_path, capsys):
    pts = tmp_path / "p.xyz"
    pts.write_text("0 0 0\n1 0 0\n0 1 0\n")
    mesh = tmp_path / "neg.off"
    mesh.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 -1\n")
    assert run(["eval", "--denoised", pts, "--clean", pts, "--mesh", mesh]) == 3
    assert "triangle index outside 0..2" in capsys.readouterr().err


# Every flag each subcommand parses; each one is read by its command.
SUBCOMMAND_FLAGS = {
    "make-dataset": {"--config", "--seed", "--shapes", "--points", "--noise",
                     "--noise-level", "--noise-ref", "--count", "--out"},
    "train": {"--config", "--seed", "--profile", "--precision", "--encoding", "--lpa",
              "--attention", "--data", "--out", "--out-weights", "--epochs", "--lr",
              "--halve-every", "--patch-size", "--alpha", "--beta", "--anchor",
              "--average-tail", "--resume"},
    "denoise": {"--config", "--precision", "--in", "--weights", "--iterations",
                "--noise-level", "--patch-size", "--rotations", "--out"},
    "eval": {"--config", "--seed", "--profile", "--precision", "--denoised", "--clean",
             "--mesh", "--surface", "--noise", "--iterations-used", "--out-report",
             "--export-colored", "--sweep", "--data", "--test-data", "--epochs", "--lr",
             "--patch-size"},
}


def test_each_subcommand_parses_exactly_its_flags():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: {opt for action in p._actions for opt in action.option_strings
                  if opt not in ("-h", "--help")}
           for name, p in sub.choices.items()}
    assert got == SUBCOMMAND_FLAGS


@pytest.mark.parametrize("command, flag, value", [
    ("make-dataset", "--profile", "desk"), ("make-dataset", "--precision", "f64"),
    ("denoise", "--seed", "1"), ("denoise", "--profile", "desk"),
    ("eval", "--encoding", "sparse"), ("eval", "--lpa", "on"), ("eval", "--attention", "on"),
])
def test_flags_a_subcommand_never_read_exit_2(command, flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        run([command, flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def _weights_with_config_block(path, block: bytes):
    """A weights file with a valid checksum around the given config block."""
    save_weights(init_weights(desk_config()), path)
    blob = path.read_bytes()
    size = int.from_bytes(blob[8:12], "little")
    payload = blob[:8] + len(block).to_bytes(4, "little") + block + blob[12 + size:-4]
    path.write_bytes(payload + zlib.crc32(payload).to_bytes(4, "little"))


def test_weights_with_a_bad_config_block_exit_3(tmp_path, capsys):
    good = desk_config().to_dict()
    missing = {k: v for k, v in good.items() if k != "k_scales"}
    blocks = {
        "extra_key.ntw": json.dumps({**good, "colour": "red"}).encode(),
        "missing_k_scales.ntw": json.dumps(missing).encode(),
        "not_json.ntw": b"{k_scales: [4, 6, 8]",
        "not_utf8.ntw": b"\xff\xfe" + json.dumps(good).encode(),
    }
    pts = tmp_path / "p.xyz"
    write_pointcloud(PointCloud(sample_surface(Sphere(), 64, seed=0).coords), pts)
    for name, block in blocks.items():
        path = tmp_path / name
        _weights_with_config_block(path, block)
        with pytest.raises(FormatError, match="bad model config block"):
            load_weights(path)
        assert run(["denoise", "--in", pts, "--weights", path,
                    "--out", tmp_path / "out.xyz"]) == 3
        assert f"error: {path}: bad model config block" in capsys.readouterr().err


def test_train_resume_with_a_malformed_state_exits_3(tiny_dataset, tmp_path, capsys):
    ck = tmp_path / "run" / "checkpoint"
    ck.mkdir(parents=True)
    weights = init_weights(desk_config())
    save_weights(weights, ck / "weights.ntw")
    (ck / "optim.bin").write_bytes(Adam(weights).state_bytes())
    for state in ("{}", "not json"):
        (ck / "state.json").write_text(state)
        assert run(["train", "--data", tiny_dataset, "--epochs", 1, "--patch-size", 16,
                    "--resume", tmp_path / "run", "--out", tmp_path / "out"]) == 3
        assert f"error: {ck / 'state.json'}: checkpoint state" in capsys.readouterr().err
