"""The benchmark's workloads: clip geometry, true motion and search settings.

Each workload stresses a different layer, so a gain in one layer shows on
one workload and its predicted "no change" can be checked on another (see
README.md in this directory). Every workload runs all four searches and
`compare`, so every end-to-end metric is measured on every workload.
"""

from dataclasses import dataclass

SEARCHES = ("fsa", "debm", "tss", "ds")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    width: int
    height: int
    frames: int
    fmt: str  # "y4m" or "yuv420"
    du: int  # true motion per frame, in the CLI's (u, v) convention
    dv: int
    n: int  # block size
    w: int  # search range

    @property
    def pairs(self) -> int:
        return self.frames - 1

    @property
    def blocks_per_frame(self) -> int:
        return (self.width // self.n) * (self.height // self.n)

    @property
    def suffix(self) -> str:
        return ".y4m" if self.fmt == "y4m" else ".yuv"

    def cli_input_args(self, clip: str) -> list[str]:
        args = ["--input", clip]
        if self.fmt == "yuv420":
            args += ["--format", "yuv420", "--width", str(self.width),
                     "--height", str(self.height)]
        return args + ["--block-size", str(self.n), "--search-range", str(self.w)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "qcif-ref",
            "paper reference config (QCIF, 16x16, w=7): debm time is DE operators and "
            "evaluate-or-estimate dispatch, the SAD kernel is ~4%",
            176, 144, 9, "y4m", 3, -2, 16, 7,
        ),
        Workload(
            "cif-n8",
            "CIF raw YUV with 8x8 blocks: 1584 small blocks per frame, so per-block "
            "and per-call Python overhead dominates; largest MV dump",
            352, 288, 2, "yuv420", -4, 3, 8, 7,
        ),
        Workload(
            "nhd-w16",
            "640x360 with w=16: fsa's numpy SAD arithmetic (1089 candidates per block), "
            "large-frame decode, compensation and scoring carry the load",
            640, 360, 2, "y4m", 11, -9, 16, 16,
        ),
    )
}
