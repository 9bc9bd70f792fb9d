"""The benchmark's workloads.

Each workload makes its inputs from the seed in set-up, lists the
operations of one round, checks the outputs of those operations against
oracles.py, and turns the recorded operation times into end-to-end metrics.
Every workload runs a denoise, an evaluate and a train operation, so every
run reports every end-to-end metric; each workload makes one of them the
heavy one (see README.md).

The program is always called through its module attributes
(`noisetrans.pipeline.denoise`, not a name imported here), so the tracer's
wrappers see every call.
"""
from __future__ import annotations

import collections
import contextlib
import io
import json
import os
import shutil
import statistics

import numpy as np

import noisetrans.autodiff
import noisetrans.cli
import noisetrans.geometry
import noisetrans.model
import noisetrans.objective
import noisetrans.pipeline

import checks
import oracles
from common import DESK_WEIGHTS

NOISE_LEVEL = 0.02
# the acceptance recipe's learning rate, schedule and clipping
TRAIN_RECIPE = dict(halve_every=50, seed=0, clip_norm=1.0)
DESK_LR = 2e-3

# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def sample_sphere(rng, n: int, radius: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((n, 3))
    return radius * g / np.linalg.norm(g, axis=1, keepdims=True)


def sample_torus(rng, n: int, major: float = 1.0, minor: float = 0.4) -> np.ndarray:
    """Area-uniform torus samples: the tube angle is accepted with
    probability proportional to the local circumference."""
    v = np.empty(0)
    while len(v) < n:
        cand = rng.uniform(0.0, 2.0 * np.pi, n)
        keep = rng.uniform(0.0, major + minor, n) <= major + minor * np.cos(cand)
        v = np.concatenate([v, cand[keep]])
    v = v[:n]
    u = rng.uniform(0.0, 2.0 * np.pi, n)
    ring = major + minor * np.cos(v)
    return np.stack([ring * np.cos(u), ring * np.sin(u), minor * np.sin(v)], axis=1)


def sample_box(rng, n: int, half: float = 1.0) -> np.ndarray:
    """Area-uniform samples of the surface of [-half, half]^3."""
    face = rng.integers(0, 6, n)
    out = rng.uniform(-half, half, (n, 3))
    rows = np.arange(n)
    out[rows, face // 2] = np.where(face % 2 == 0, half, -half)
    return out


def add_noise(rng, clean: np.ndarray, level: float = NOISE_LEVEL) -> np.ndarray:
    """Gaussian noise with std = level x bounding-sphere radius of the cloud."""
    radius = np.linalg.norm(clean - clean.mean(axis=0), axis=1).max()
    return clean + rng.normal(0.0, level * radius, clean.shape)


def cube_mesh(half: float, subdivisions: int):
    """The box surface as 6 x s x s quads, two triangles each."""
    s = subdivisions
    g = np.linspace(-half, half, s + 1)
    a, b = (m.ravel() for m in np.meshgrid(g, g, indexing="ij"))
    verts, tris = [], []
    for axis in range(3):
        others = [i for i in range(3) if i != axis]
        for sign in (-half, half):
            v = np.empty((len(a), 3))
            v[:, axis] = sign
            v[:, others[0]] = a
            v[:, others[1]] = b
            base = sum(len(x) for x in verts)
            i, j = (m.ravel() for m in np.meshgrid(np.arange(s), np.arange(s), indexing="ij"))
            p = base + i * (s + 1) + j
            tris += [np.stack([p, p + s + 1, p + s + 2], 1), np.stack([p, p + s + 2, p + 1], 1)]
            verts.append(v)
    return noisetrans.geometry.TriMesh(np.concatenate(verts), np.concatenate(tris))


def write_xyz(path: str, coords: np.ndarray) -> None:
    np.savetxt(path, coords, fmt="%.17g")


def read_xyz(path: str) -> np.ndarray:
    return np.loadtxt(path, ndmin=2)


SURFACES = {
    "sphere": (sample_sphere, lambda p: oracles.sphere_sqdist(p, 1.0),
               {"kind": "sphere", "radius": 1.0}),
    "torus": (sample_torus, lambda p: oracles.torus_sqdist(p, 1.0, 0.4),
              {"kind": "torus", "major_radius": 1.0, "minor_radius": 0.4}),
    "cube": (sample_box, lambda p: oracles.box_sqdist(p, 1.0),
             {"kind": "cube", "half_extent": 1.0}),
}


def random_rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class Cloud:
    """Clean samples of a named surface and a noisy copy, shown to the
    program in an orientation and point order drawn from the seed.

    The samples and the noise come from the fixed `stream`: the number of
    patches the farthest-point cover needs swings by 7-25 % between noise
    draws, which would swamp the bounds, while a rigid motion and a
    reordering leave it unchanged (README.md, "Seeds").
    """

    def __init__(self, shape: str, n: int, stream: int, seed: int):
        sample, self._sqdist, self.surface_desc = SURFACES[shape]
        self.shape = shape
        fixed = np.random.default_rng(stream)
        clean = sample(fixed, n)
        noisy = add_noise(fixed, clean)
        rng = np.random.default_rng([seed, stream])
        self.rotation = random_rotation(rng)
        order = rng.permutation(n)
        self.clean_canonical = clean[order]
        self.clean = clean[order] @ self.rotation.T
        self.noisy = noisy[order] @ self.rotation.T

    def canonical(self, p: np.ndarray) -> np.ndarray:
        """Points moved back into the surface's own frame."""
        return p @ self.rotation

    def sqdist(self, p: np.ndarray) -> np.ndarray:
        return self._sqdist(self.canonical(p))

    def surface(self):
        return noisetrans.geometry.shape_from_dict(self.surface_desc)


def write_dataset(out_dir: str, clouds: list[Cloud]) -> str:
    """Write clouds in the program's manifest format; returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for i, c in enumerate(clouds):
        name = f"shape_{i:03d}_{c.shape}"
        write_xyz(os.path.join(out_dir, f"{name}_clean.xyz"), c.clean)
        write_xyz(os.path.join(out_dir, f"{name}_noisy.xyz"), c.noisy)
        entries.append({
            "name": name, "surface": c.surface_desc, "points": len(c.clean),
            "clean": f"{name}_clean.xyz", "noisy": f"{name}_noisy.xyz",
            "noise": {"distribution": "gaussian", "level": NOISE_LEVEL,
                      "scale_reference": "bounding_sphere_radius", "seed": 0},
        })
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seed": 0, "entries": entries}, fh, indent=2)
    return path


def randomized_head(cfg, seed: int = 0, scale: float = 0.05):
    """Seeded init with a random final projection, so the network is not the identity."""
    w = noisetrans.model.init_weights(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    w["head.final.weight"].data = scale * rng.standard_normal(w["head.final.weight"].shape)
    w["head.final.bias"].data = scale * rng.standard_normal(3)
    return w


def param_arrays(weights) -> dict:
    return {n: np.array(weights[n].data, dtype=np.float64) for n in weights.names()}


def backward_and_central_differences(weights, x, gt, names, graphs=None, fd_weights=None,
                                     h: float = 1e-5):
    """Gradient of the training loss on one patch from Tape.backward, and
    from central differences of the numpy loss (oracles.py) taken at
    `fd_weights` (default: the same weights), for the largest-gradient
    entry of each named parameter."""
    weights.zero_grad()
    with noisetrans.autodiff.Tape() as tape:
        y = noisetrans.model.forward(x, weights, graphs=graphs)
        tape.backward(noisetrans.objective.loss_total(y, gt, x))
    params = param_arrays(fd_weights or weights)
    analytic, numeric = [], []
    for name in names:
        grad = weights[name].grad
        idx = np.unravel_index(int(np.argmax(np.abs(grad))), grad.shape)
        analytic.append(grad[idx])
        losses = []
        for step in (h, -h):
            p = dict(params)
            p[name] = params[name].copy()
            p[name][idx] += step
            losses.append(oracles.training_loss(
                oracles.numpy_forward(x, weights.config, p), gt, x))
        numeric.append((losses[0] - losses[1]) / (2 * h))
    weights.zero_grad()
    return analytic, numeric


def desk_resume_dir(workdir: str) -> str:
    """A run directory whose checkpoint holds the stored desk weights and a
    fresh optimizer, so that `train(..., resume=...)` fine-tunes them.

    Desk training from scratch needs thousands of steps to climb back
    below the identity network it starts as; a few hundred do not.
    """
    run = os.path.join(workdir, "desk_resume")
    ck = os.path.join(run, "checkpoint")
    os.makedirs(ck)
    shutil.copyfile(DESK_WEIGHTS, os.path.join(ck, "weights.ntw"))
    adam = noisetrans.objective.Adam(noisetrans.model.load_weights(DESK_WEIGHTS))
    with open(os.path.join(ck, "optim.bin"), "wb") as fh:
        fh.write(adam.state_bytes())
    with open(os.path.join(ck, "state.json"), "w", encoding="utf-8") as fh:
        json.dump({"next_epoch": 0}, fh)
    return run


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """Set-up happens in __init__; run.py times each operation of round().

    Subclasses set `clouds` (the denoised inputs, by name), `surfaces` (what
    evaluate_pairs scores them against) and the train operation's inputs.
    """

    name = ""
    denoise_patch = 32
    denoise_rotations = 1
    ratio_bound: float | None = None
    eval_repeats = 1
    train_lr = DESK_LR

    def __init__(self, seed: int, workdir: str, cfg, train_clouds: list[Cloud],
                 resume: str | None):
        self.seed = seed
        self.workdir = workdir
        self.cfg = cfg
        self.manifest = write_dataset(os.path.join(workdir, "train_data"), train_clouds)
        self.resume = resume
        self.spans: dict[str, list[tuple[int, float, float]]] = collections.defaultdict(list)
        self.first: dict[str, object] = {}
        self.last: dict[str, object] = {}

    def keep(self, key: str, value) -> None:
        self.first.setdefault(key, value)
        self.last[key] = value

    def denoise_ops(self) -> list:
        """(name, operation) per cloud; by default one library denoise pass
        (1 iteration, 1 rotation, coverage 3) with `self.weights`."""
        return [(name, self._denoise(name)) for name in self.clouds]

    def _denoise(self, name: str):
        def op():
            self.keep(f"denoise:{name}", noisetrans.pipeline.denoise(
                self.clouds[name].noisy, self.weights, patch_size=self.denoise_patch))
        return op

    def round(self) -> list[tuple[str, object]]:
        """Evaluate and train before and after every denoise.

        The small operations are spread over the round because the CPU's
        speed drifts over seconds (see speed.py): samples taken at several
        moments average out what the rescaling misses.
        """
        probes = [("evaluate", self._evaluate)] * self.eval_repeats + [("train", self._train)]
        ops = list(probes)
        for name, op in self.denoise_ops():
            ops += [(f"denoise:{name}", op)] + probes
        return ops

    def _evaluate(self):
        """Score each cloud's latest denoised output; before a cloud's first
        denoise in the process, its noisy input, which is the same size."""
        items = [{"name": name,
                  "denoised": c.canonical(self.last.get(f"denoise:{name}", c.noisy)),
                  "clean": c.clean_canonical, "surface": self.surfaces[name],
                  "noise": "gaussian 2%"} for name, c in self.clouds.items()]
        self.keep("evaluate", noisetrans.pipeline.evaluate_pairs(items))

    def _train(self):
        self.keep("train", noisetrans.pipeline.train(
            self.manifest, self.cfg, 1, os.path.join(self.workdir, "train_run"),
            patch_size=self.denoise_patch, base_lr=self.train_lr, resume=self.resume,
            **TRAIN_RECIPE))

    def ratios(self) -> dict:
        """Closed-form mean squared surface distance, output over input."""
        return {name: checks.surface_ratio(f"denoise {name}: P2M ratio (closed form)",
                                           c.noisy, self.last[f"denoise:{name}"], c.sqdist,
                                           self.ratio_bound or np.inf)
                for name, c in self.clouds.items()}

    def typical(self, kind: str, scale) -> float:
        """Median rescaled time (speed.py) of each operation of a kind,
        averaged over the operations of that kind.

        The first round is left out when later rounds ran: a process's
        first calls pay one-off costs (full-mesh's first denoise takes
        1.5-2x its later ones). denoise-desk runs one round, so its CLI
        calls keep those costs, as a command-line user pays them.
        """
        per_op = []
        for label, spans in self.spans.items():
            if label.split(":")[0] == kind:
                warm = [s for s in spans if s[0] > 0] or spans
                per_op.append(statistics.median(
                    (end - start) * scale(start, end) for _, start, end in warm))
        return float(np.mean(per_op))

    def metrics(self, scale) -> dict:
        """End-to-end metrics; `scale(start, end)` maps wall time to nominal speed."""
        return {
            "denoise_s": (self.typical("denoise", scale), "s"),
            "denoise_p2m_ratio": (float(np.mean([r for _, r in self.ratios().values()])),
                                  "ratio"),
            "train_s": (self.typical("train", scale), "s"),
            "train_loss": (float(self.last["train"].epoch_losses[-1]), "loss"),
            "eval_s": (self.typical("evaluate", scale), "s"),
        }

    def checks(self) -> list[checks.Check]:
        res = [check for check, _ in self.ratios().values()] if self.ratio_bound else []
        for name, c in self.clouds.items():
            out = self.last[f"denoise:{name}"]
            res.append(checks.cloud_shape(f"denoise {name}: shape", out, len(c.noisy)))
            res.append(checks.identical(f"denoise {name}: same output every round",
                                        self.first[f"denoise:{name}"], out))
        for row, (name, c) in zip(self.last["evaluate"].rows, self.clouds.items()):
            out = self.last[f"denoise:{name}"]
            res.append(checks.close(f"evaluate {name}: Chamfer vs brute force", row.cd,
                                    oracles.brute_chamfer(c.canonical(out), c.clean_canonical)))
            res.append(checks.close(f"evaluate {name}: P2M vs closed form",
                                    row.p2m, c.sqdist(out).mean()))
        first, last = self.first["train"], self.last["train"]
        res.append(checks.finite_losses("train: every epoch loss finite", last.epoch_losses))
        res.append(checks.identical("train: same losses every round",
                                    np.array(first.epoch_losses), np.array(last.epoch_losses)))
        return res

    def trace_checks(self, denoise_deltas: list) -> list[checks.Check]:
        """Every traced denoise: forward rows == patches x patch size x rotations."""
        return [
            checks.forward_points(
                f"trace: forward rows of denoise #{i}",
                d["model.forward.points"], d["spatial.extract_patches.patches"],
                self.denoise_patch, self.denoise_rotations)
            for i, d in enumerate(denoise_deltas)
        ]

    def _single_pass_checks(self) -> list[checks.Check]:
        return [checks.normal_displacement(f"denoise {name}: moves along PCA normals only",
                                           c.noisy, self.last[f"denoise:{name}"])
                for name, c in self.clouds.items()]


class DenoiseDesk(Workload):
    """The acceptance denoise recipe through the in-process CLI."""

    name = "denoise-desk"
    denoise_rotations = 4
    iterations = 4
    ratio_bound = 0.7          # acceptance criterion 7's per-cloud threshold
    eval_repeats = 10          # one evaluate takes ~8 ms
    POINTS, TRAIN_POINTS = 1024, 256

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir, noisetrans.model.desk_config(),
                         [Cloud("sphere", self.TRAIN_POINTS, 21, seed),
                          Cloud("torus", self.TRAIN_POINTS, 22, seed)],
                         desk_resume_dir(workdir))
        self.clouds = {"sphere": Cloud("sphere", self.POINTS, 11, seed),
                       "torus": Cloud("torus", self.POINTS, 12, seed)}
        self.surfaces = {name: c.surface() for name, c in self.clouds.items()}
        for name, c in self.clouds.items():
            write_xyz(os.path.join(workdir, f"{name}_noisy.xyz"), c.noisy)

    def denoise_ops(self):
        return [(name, self._cli_denoise(name)) for name in self.clouds]

    def _cli_denoise(self, name):
        src = os.path.join(self.workdir, f"{name}_noisy.xyz")
        dst = os.path.join(self.workdir, f"{name}_denoised.xyz")
        argv = ["denoise", "--in", src, "--weights", DESK_WEIGHTS,
                "--iterations", str(self.iterations), "--rotations", str(self.denoise_rotations),
                "--patch-size", str(self.denoise_patch), "--out", dst]

        def op():
            with contextlib.redirect_stdout(io.StringIO()):
                code = noisetrans.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"denoise exited with code {code}")
            self.keep(f"denoise:{name}", read_xyz(dst))
        return op

    def checks(self):
        res = super().checks()
        # a reduced call (1 iteration, 1 rotation) must be permutation-
        # equivariant and move points along their normals only
        weights = noisetrans.model.load_weights(DESK_WEIGHTS)
        x = self.clouds["sphere"].noisy
        perm = np.random.default_rng(self.seed).permutation(len(x))

        def reduced(pts):
            return noisetrans.pipeline.denoise(pts, weights, patch_size=self.denoise_patch)
        once = reduced(x)
        res.append(checks.permutation_equivariant(
            "reduced denoise: permutation-equivariant", once, reduced(x[perm]), perm))
        res.append(checks.normal_displacement(
            "reduced denoise: moves along PCA normals only", x, once))
        return res


class TrainDesk(Workload):
    """One desk-profile training call; the only tape/backward/Adam-heavy workload."""

    name = "train-desk"
    ratio_bound = 0.9          # one projected pass of the stored desk weights
    eval_repeats = 10
    POINTS = 1024
    FD_PARAMS = ("head.final.weight", "head.l0.weight", "encoder.l1.ffn1.weight",
                 "encoder.l0.q.weight", "fuse.l0.weight", "embed.u0.l1.gate",
                 "enc.l0.weight")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir, noisetrans.model.desk_config(),
                         [Cloud("sphere", self.POINTS, 31, seed),
                          Cloud("torus", self.POINTS, 32, seed)],
                         desk_resume_dir(workdir))
        self.clouds = {"sphere": Cloud("sphere", self.POINTS, 33, seed)}
        self.surfaces = {"sphere": self.clouds["sphere"].surface()}
        self.weights = noisetrans.model.load_weights(DESK_WEIGHTS)

    def checks(self):
        return super().checks() + self._single_pass_checks() + self._trained_model_checks()

    def _trained_model_checks(self):
        trained = self.last["train"].weights
        params = param_arrays(trained)
        pairs = noisetrans.pipeline.build_training_pairs(self.manifest, self.denoise_patch,
                                                         self.cfg)
        trained_loss = np.mean([
            oracles.training_loss(oracles.numpy_forward(p.noisy_local, self.cfg, params),
                                  p.clean_local, p.noisy_local) for p in pairs])
        identity_loss = np.mean([oracles.training_loss(p.noisy_local, p.clean_local, p.noisy_local)
                                 for p in pairs])
        res = [checks.beats_identity("train: trained loss below identity network",
                                     float(trained_loss), float(identity_loss))]

        # Tape.backward against central differences of the numpy loss on one pair
        pair = pairs[0]
        analytic, numeric = backward_and_central_differences(
            trained, pair.noisy_local, pair.clean_local, self.FD_PARAMS, graphs=pair.graphs)
        res.append(checks.gradients_match("train: Tape.backward vs central differences",
                                          analytic, numeric))
        return res


class FullMesh(Workload):
    """Full-profile denoise at patch 256 on a cloud sampled from a cube mesh,
    then Chamfer and brute-force point-to-mesh evaluation."""

    name = "full-mesh"
    denoise_patch = 256
    eval_repeats = 2
    POINTS, TRAIN_POINTS = 1536, 320
    SUBDIVISIONS = 12          # 6 x 12 x 12 x 2 = 1,728 triangles
    # At init the full profile's residual stream has an rms of about 120, so
    # a head scale of 1e-5 moves points by 2-3 % of a patch radius, and Adam
    # steps above ~1e-6 make the first epoch diverge (see README.md).
    HEAD_SCALE = 1e-5
    train_lr = 1e-6
    FORWARD_SAMPLES = 2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir, noisetrans.model.full_config(),
                         [Cloud("cube", self.TRAIN_POINTS, 42, seed)], None)
        self.weights = randomized_head(self.cfg, scale=self.HEAD_SCALE)
        self.clouds = {"cube": Cloud("cube", self.POINTS, 41, seed)}
        self.surfaces = {"cube": cube_mesh(1.0, self.SUBDIVISIONS)}

    def checks(self):
        res = super().checks() + self._single_pass_checks()
        # forward on sampled patches: each is the brute-force 256 nearest
        # neighbours of a random point, in its unit-sphere frame
        params = param_arrays(self.weights)
        x = self.clouds["cube"].noisy
        d2 = oracles.sqdist_matrix(x, x)
        rng = np.random.default_rng(self.seed)
        for seed_index in rng.choice(len(x), self.FORWARD_SAMPLES, replace=False):
            members = np.argsort(d2[seed_index], kind="stable")[:self.denoise_patch]
            local = x[members] - x[members].mean(axis=0)
            local /= np.linalg.norm(local, axis=1).max()
            got = noisetrans.model.forward(local, self.weights).data
            res.append(checks.close(f"forward on patch at point {seed_index} vs numpy",
                                    got, oracles.numpy_forward(local, self.cfg, params),
                                    rtol=0.0, atol=1e-9))
        return res


WORKLOADS = {w.name: w for w in (DenoiseDesk, TrainDesk, FullMesh)}
