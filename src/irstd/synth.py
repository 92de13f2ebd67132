"""Training-data factory: fuse small bright targets into background images
and emit (frame, target image, count label) tuples.

Fusion is pixelwise max: a target is implanted by taking, inside its box,
max(background, alpha * resized template) with a brightness factor alpha
drawn uniformly from [0.75, 1]. A fusion counts as successful only if more
than one pixel actually rose; failed fusions leave the frame untouched so the
count label always matches what is visible. The target image is frame minus
background, hence nonnegative everywhere, and a label of zero means it is
identically zero.

Templates are isotropic Gaussian blobs by default (a stand-in target set;
user-supplied template images work the same way), resized per placement with
bilinear interpolation. Built-in backgrounds are low-frequency value noise
plus a gradient, kept in a sub-saturated range so targets can fuse.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .detect import label_mask
from .pgm import read_pgm, write_pgm
from .tensor import DTYPE, Rng


@dataclass(frozen=True)
class FusionLocation:
    """Placement box: top-left pixel (x0 = row, y0 = column) and extents
    (h0 rows, w0 columns)."""

    x0: int
    y0: int
    h0: int
    w0: int

    def within(self, height: int, width: int) -> bool:
        return (self.x0 >= 0 and self.y0 >= 0
                and self.x0 + self.h0 <= height and self.y0 + self.w0 <= width)

    def disjoint(self, other: "FusionLocation", margin: int = 0) -> bool:
        return (self.x0 + self.h0 + margin <= other.x0
                or other.x0 + other.h0 + margin <= self.x0
                or self.y0 + self.w0 + margin <= other.y0
                or other.y0 + other.w0 + margin <= self.y0)


@dataclass
class TrainingTuple:
    frame: np.ndarray          # f_D: background with targets fused in
    target: np.ndarray         # f_T = f_D - f_B, >= 0 everywhere
    label: int                 # y_T: number of successfully fused targets
    boxes: list[FusionLocation]
    seed_index: int = 0


def gaussian_template(sigma: float, amplitude: float = 1.0, extent: int = 17) -> np.ndarray:
    """Isotropic Gaussian blob peaking at ``amplitude`` in the centre pixel
    (use odd extents for an exact centre)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if not 0 < amplitude <= 1:
        raise ValueError("amplitude must be in (0, 1]")
    c = (extent - 1) / 2.0
    i = np.arange(extent, dtype=np.float64)
    r2 = (i[:, None] - c) ** 2 + (i[None, :] - c) ** 2
    return (amplitude * np.exp(-r2 / (2.0 * sigma * sigma))).astype(DTYPE)


def default_templates() -> list[np.ndarray]:
    """Blob set spanning compact to moderately flat profiles. Flatter blobs
    survive downscaling to 2-3 pixel boxes with most of their peak intact."""
    out = []
    for sigma in (2.6, 3.2, 3.8, 4.6, 5.4):
        for amplitude in (0.88, 0.94, 1.0):
            out.append(gaussian_template(sigma, amplitude, extent=17))
    return out


def bilinear_resize(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resample with half-pixel centre alignment and edge clamping."""
    image = np.asarray(image, np.float64)
    h, w = image.shape
    if out_h < 1 or out_w < 1:
        raise ValueError("output extents must be positive")
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    y0 = np.clip(np.floor(ys), 0, h - 1).astype(int)
    x0 = np.clip(np.floor(xs), 0, w - 1).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = np.clip(ys - y0, 0.0, 1.0)[:, None]
    fx = np.clip(xs - x0, 0.0, 1.0)[None, :]
    top = image[np.ix_(y0, x0)] * (1 - fx) + image[np.ix_(y0, x1)] * fx
    bot = image[np.ix_(y1, x0)] * (1 - fx) + image[np.ix_(y1, x1)] * fx
    return (top * (1 - fy[:, 0])[:, None] + bot * fy).astype(DTYPE)


def fuse_one(background: np.ndarray, template: np.ndarray, loc: FusionLocation,
             rng: Rng) -> tuple[np.ndarray, bool, int]:
    """Fuse one target into a background at the given box.

    Draws alpha ~ U[0.75, 1], resizes the template to the box, and raises
    every box pixel where alpha * template exceeds the background (a
    pixelwise max). Returns (fused image, success, raised pixel count);
    success requires more than one raised pixel, and an unsuccessful fusion
    returns the background unchanged so no stray pixels survive.
    """
    background = np.asarray(background)
    if template.size == 0:
        raise ValueError("empty template")
    if not loc.within(*background.shape):
        raise ValueError(f"{loc} outside {background.shape} image")
    alpha = rng.uniform(0.75, 1.0)
    patch = (alpha * bilinear_resize(template, loc.h0, loc.w0)).astype(background.dtype)
    region = background[loc.x0:loc.x0 + loc.h0, loc.y0:loc.y0 + loc.w0]
    above = patch > region
    n_raised = int(above.sum())
    success = n_raised > 1
    fused = background.copy()
    if success:
        fused[loc.x0:loc.x0 + loc.h0, loc.y0:loc.y0 + loc.w0] = np.where(above, patch, region)
    return fused, success, n_raised


def place_boxes(height: int, width: int, n: int, rng: Rng,
                size_range: tuple[int, int] = (2, 10), margin: int = 2,
                max_tries: int = 100) -> list[FusionLocation]:
    """Rejection-sample n pairwise-disjoint boxes (separated by ``margin``
    pixels, so 8-connected components can never merge)."""
    boxes: list[FusionLocation] = []
    for _ in range(n):
        for _ in range(max_tries):
            h0 = rng.randint(*size_range)
            w0 = rng.randint(*size_range)
            loc = FusionLocation(rng.randint(0, height - h0), rng.randint(0, width - w0), h0, w0)
            if all(loc.disjoint(b, margin) for b in boxes):
                boxes.append(loc)
                break
        else:
            raise ValueError(
                f"could not place {n} disjoint {size_range} boxes on a "
                f"{height}x{width} background after {max_tries} tries each")
    return boxes


def make_tuple(background: np.ndarray, n_targets: int, templates: list[np.ndarray],
               rng: Rng, size_range: tuple[int, int] = (2, 10), margin: int = 2) -> TrainingTuple:
    """Fuse ``n_targets`` targets at disjoint random boxes. The label counts
    successful fusions only, so it can fall short of ``n_targets`` on
    saturated backgrounds."""
    if n_targets < 1:
        raise ValueError("n_targets must be >= 1; build negatives directly from backgrounds")
    background = np.asarray(background, DTYPE)
    boxes = place_boxes(*background.shape, n_targets, rng, size_range, margin)
    frame = background
    label = 0
    kept: list[FusionLocation] = []
    for loc in boxes:
        frame, ok, _ = fuse_one(frame, rng.choice(templates), loc, rng)
        if ok:
            label += 1
            kept.append(loc)
    return TrainingTuple(frame, frame - background, label, kept)


def negative_tuple(background: np.ndarray) -> TrainingTuple:
    background = np.asarray(background, DTYPE)
    return TrainingTuple(background, np.zeros_like(background), 0, [])


def random_background(height: int, width: int, rng: Rng,
                      base_range: tuple[float, float] = (0.08, 0.42),
                      gradient: float = 0.10, grain: float = 0.012,
                      speckles: tuple[int, int, float, float] | None = None) -> np.ndarray:
    """Low-frequency value noise plus a random linear gradient and fine
    grain, clipped to stay clear of saturation.

    ``speckles`` = (n_min, n_max, amp_min, amp_max) sprinkles that many
    single-pixel bright outliers: clutter that punishes detectors leaning on
    brightness alone, since a lone hot pixel is not a target.
    """
    coarse = bilinear_resize(rng.uniform_array((4, 4), *base_range, np.float64), height, width)
    medium = bilinear_resize(rng.uniform_array((9, 9), -0.06, 0.06, np.float64), height, width)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    ramp = (np.cos(theta) * xx / width + np.sin(theta) * yy / height) * gradient
    fine = rng.uniform_array((height, width), -grain, grain, np.float64)
    img = coarse.astype(np.float64) + medium.astype(np.float64) + ramp + fine
    if speckles is not None:
        n_min, n_max, amp_min, amp_max = speckles
        for _ in range(rng.randint(n_min, n_max)):
            r = rng.randint(0, height - 1)
            c = rng.randint(0, width - 1)
            img[r, c] += rng.uniform(amp_min, amp_max)
    return np.clip(img, 0.0, 0.62).astype(DTYPE)


def count_components(target: np.ndarray) -> int:
    """8-connected components of the positive support of a target image."""
    _, n = label_mask(np.asarray(target) > 0)
    return n


def generate_tuples(counts: list[int], seed: int, size: tuple[int, int] = (64, 64),
                    backgrounds: list[np.ndarray] | None = None,
                    templates: list[np.ndarray] | None = None,
                    size_range: tuple[int, int] = (2, 10), margin: int = 2,
                    max_regen: int = 40, background_params: dict | None = None,
                    workers: int = 1) -> list[TrainingTuple]:
    """Generate tuples whose label histogram equals ``counts`` exactly
    (counts[k] tuples with label k).

    Each tuple draws from its own child stream keyed by (seed, index), so the
    dataset is byte-identical however the work is split; ``workers`` > 1 fans
    the tuples out over processes. Positive tuples are regenerated until
    every requested fusion succeeded and the positive support of the target
    image splits into exactly ``label`` 8-connected components -- the label
    is guaranteed correct by construction, including after 16-bit
    quantisation.
    """
    templates = templates if templates is not None else default_templates()
    height, width = size
    specs = []
    index = 0
    for wanted, n in enumerate(counts):
        for _ in range(n):
            specs.append((wanted, index))
            index += 1
    build = functools.partial(
        _build_spec, seed=seed, height=height, width=width,
        backgrounds=backgrounds, templates=templates, size_range=size_range,
        margin=margin, max_regen=max_regen,
        background_params=background_params or {})
    if workers > 1 and len(specs) >= 2 * workers:
        from concurrent.futures import ProcessPoolExecutor
        chunk = max(1, len(specs) // (workers * 4))
        with ProcessPoolExecutor(workers) as pool:
            return list(pool.map(build, specs, chunksize=chunk))
    return [build(s) for s in specs]


def _build_spec(spec, *, seed, height, width, backgrounds, templates,
                size_range, margin, max_regen, background_params):
    wanted, index = spec
    rng = Rng.derive(seed, index)
    return _one_tuple(wanted, rng, height, width, backgrounds, templates,
                      size_range, margin, max_regen, index, background_params)


def _quantized(img: np.ndarray) -> np.ndarray:
    return np.rint(np.clip(img, 0.0, 1.0).astype(np.float64) * 65535) / 65535.0


def _one_tuple(wanted, rng, height, width, backgrounds, templates,
               size_range, margin, max_regen, index, background_params) -> TrainingTuple:
    for _ in range(max_regen):
        if backgrounds is None:
            bg = random_background(height, width, rng, **background_params)
        else:
            bg = np.asarray(rng.choice(backgrounds), DTYPE)
            if bg.shape != (height, width):
                bg = bilinear_resize(bg, height, width)
        if wanted == 0:
            t = negative_tuple(bg)
            t.seed_index = index
            return t
        t = make_tuple(bg, wanted, templates, rng, size_range, margin)
        if (t.label == wanted
                and count_components(t.target) == wanted
                and count_components(_quantized(t.target)) == wanted):
            t.seed_index = index
            return t
    raise ValueError(
        f"failed to synthesise a clean {wanted}-target tuple in {max_regen} "
        "attempts; backgrounds may be too saturated or too small")


def write_dataset(out_dir, tuples: list[TrainingTuple]) -> Path:
    """Write frames and target images as 16-bit PGM plus a JSONL manifest.

    Manifest rows: {"f_D": path, "f_T": path, "y_T": label,
    "boxes": [[x0, y0, h0, w0], ...], "seed_index": n}. Re-running with the
    same tuples is byte-identical.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for i, t in enumerate(tuples):
        frame_name = f"frame_{i:05d}.pgm"
        target_name = f"target_{i:05d}.pgm"
        write_pgm(out_dir / frame_name, t.frame)
        write_pgm(out_dir / target_name, t.target)
        rows.append(json.dumps({
            "f_D": frame_name,
            "f_T": target_name,
            "y_T": t.label,
            "boxes": [[b.x0, b.y0, b.h0, b.w0] for b in t.boxes],
            "seed_index": t.seed_index,
        }, sort_keys=True))
    manifest = out_dir / "manifest.jsonl"
    manifest.write_text("\n".join(rows) + "\n")
    return manifest


def manifest_rows(path) -> list[dict]:
    """The manifest's JSON objects, one per non-blank line."""
    return [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]


def load_dataset(manifest_path) -> list[TrainingTuple]:
    base = Path(manifest_path).parent
    return [TrainingTuple(
        frame=read_pgm(base / row["f_D"]),
        target=read_pgm(base / row["f_T"]),
        label=int(row["y_T"]),
        boxes=[FusionLocation(*b) for b in row["boxes"]],
        seed_index=int(row.get("seed_index", 0)),
    ) for row in manifest_rows(manifest_path)]


def desk_templates() -> list[np.ndarray]:
    """Sharp-cored blobs for the desk-scale recipe: one dominant pixel with a
    faint fusable skirt, so three targets stay under the adaptive threshold's
    energy budget on 64x64 frames."""
    return [gaussian_template(s, 1.0, extent=17) for s in (3.0, 3.05, 3.1)]


DESK_BACKGROUND = {"base_range": (0.085, 0.115), "gradient": 0.02, "grain": 0.004}


def desk_tuples(counts: list[int], seed: int, size: tuple[int, int] = (64, 64)) -> list[TrainingTuple]:
    """Desk-scale dataset: 64x64 frames, 3x3 targets, dim low-texture
    backgrounds. Calibrated so an ideal extractor detects every target at
    k = 25; see the acceptance suite."""
    return generate_tuples(counts, seed, size=size, templates=desk_templates(),
                           size_range=(3, 3), background_params=DESK_BACKGROUND)
