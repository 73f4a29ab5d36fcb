"""Prior-work baselines: inter-video traffic fingerprinting.

Section II of the paper argues that existing encrypted-video analysis
techniques — which identify *which title* is being watched from downlink
bitrate/burst patterns — cannot distinguish *segments of the same title*,
because every branch of an interactive movie is encoded on the same bitrate
ladder.  This package implements coarse-feature versions of the two
techniques the paper cites:

* :mod:`repro.baselines.bitrate` — windowed average-throughput profiles in
  the spirit of Reed & Kranch (CODASPY 2017);
* :mod:`repro.baselines.burst` — downlink burst-volume sequences in the
  spirit of Schuster, Shmatikov & Tromer (USENIX Security 2017);

and a comparison harness (:mod:`repro.baselines.comparison`) that pits them
against the White Mirror side-channel on the intra-video task of deciding, at
every choice point, which branch was streamed.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        ".bitrate": "BitrateProfile BitrateFingerprinter",
        ".burst": "BurstSequence BurstFingerprinter extract_bursts",
        ".comparison": "BranchClassificationTask ComparisonResult build_branch_tasks"
            " run_comparison",
    },
)
