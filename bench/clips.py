"""Synthetic clips with exactly known motion, generated from a seed.

A smoothed random texture of zero mean and fixed contrast is translated
by the workload's (du, dv) per frame with wrap-around. Every block whose
true displacement keeps it inside the frame therefore matches the
previous frame exactly at (du, dv). The texture is made here, not by the
program, so the program sees only the written file.

Usage: python3 bench/clips.py WORKLOAD SEED PATH
"""

import sys

import numpy as np

from workloads import WORKLOADS, Workload

SMOOTHNESS = 2.0  # Gaussian blur sigma in pixels, as in the program's own synth clips
CONTRAST = 40.0  # luma standard deviation around 128


def texture(width: int, height: int, seed: int) -> np.ndarray:
    noise = np.random.default_rng(seed).standard_normal((height, width))
    fy = np.fft.fftfreq(height)[:, None]
    fx = np.fft.rfftfreq(width)[None, :]
    gain = np.exp(-2.0 * (np.pi * SMOOTHNESS) ** 2 * (fx * fx + fy * fy))
    smooth = np.fft.irfft2(np.fft.rfft2(noise) * gain, s=(height, width))
    smooth = (smooth - smooth.mean()) / smooth.std()
    return np.clip(np.round(128.0 + CONTRAST * smooth), 0, 255).astype(np.uint8)


def frames(workload: Workload, seed: int) -> list[np.ndarray]:
    """Luma planes of the clip; frame t holds frame t-1's content at (+du, +dv)."""
    base = texture(workload.width, workload.height, seed)
    return [
        np.roll(base, shift=(-t * workload.dv, -t * workload.du), axis=(0, 1))
        for t in range(workload.frames)
    ]


def true_motion_valid(workload: Workload, x: int, y: int) -> bool:
    """True when the block at (x, y) has its exact match inside the frame."""
    n = workload.n
    return (0 <= x + workload.du <= workload.width - n
            and 0 <= y + workload.dv <= workload.height - n)


def write_clip(path: str, workload: Workload, luma: list[np.ndarray]) -> None:
    chroma = bytes([128]) * (workload.width * workload.height // 2)
    with open(path, "wb") as stream:
        if workload.fmt == "y4m":
            stream.write(
                f"YUV4MPEG2 W{workload.width} H{workload.height} F30:1 Ip A1:1 "
                f"C420jpeg\n".encode()
            )
        for plane in luma:
            if workload.fmt == "y4m":
                stream.write(b"FRAME\n")
            stream.write(plane.tobytes())
            stream.write(chroma)


def main(argv: list[str]) -> int:
    name, seed, path = argv
    workload = WORKLOADS[name]
    write_clip(path, workload, frames(workload, int(seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
